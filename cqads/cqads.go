// Package cqads is the public facade of the CQAds reproduction: a
// closed-domain question-answering system over advertisement databases
// that returns exact answers when they exist and ranked
// partially-matched answers when they do not (Qumsiyeh, Pera, Ng,
// PVLDB 5(3), 2011).
//
// The quickest start uses the bundled synthetic environment:
//
//	sys, err := cqads.Open(cqads.Options{Seed: 42, AdsPerDomain: 500})
//	res, err := sys.Ask("cheapest 2 door red honda civic")
//
// Applications with their own data build a database per domain schema
// and wire similarity matrices explicitly via New.
//
// # Performance architecture
//
// Question answering is engineered for interactive latency under
// concurrent load. Generated SQL runs on a streaming executor: following
// the paper's evaluation order (Sec. 4.3: Type I, then Type II, then
// Type III conditions), the first indexed condition of the statement
// drives the scan, the other equalities on hash-indexed columns are
// answered by searching their postings, and the remaining conjuncts
// are checked as per-row residuals. No plan is cached: the roles are
// read off each statement as it runs, which costs less than a cache
// lookup would, since questions come in many shapes (the 19 938
// statements generated for 20 000 distinct questions have 5 473).
// The N−1 relaxation sweep (Sec. 4.3.1) streams each condition's
// matching rows once into a counting tally
// and emits rows satisfying at least n−1 (depth 2: n−2) conditions,
// rather than re-executing one SQL query per dropped condition; the
// tally, its seen set and the scanned postings live in pooled scratch,
// so a relaxing ask allocates nothing that scales with the corpus; ranked
// partial answers are selected with a bounded top-K heap sized to
// MaxAnswers instead of sorting the full candidate pool. Every
// optimized path is proven bit-identical to the eager reference
// evaluator. System.Ask is safe to call from many goroutines; the
// similarity caches are lock-striped so concurrent questions contend
// only on colliding stripes.
//
// # Live ingestion
//
// The ads corpus is mutable at runtime, matching the live feeds the
// paper serves: System.InsertAd posts an ad into a running system and
// System.DeleteAd expires one, both safe to call while other
// goroutines Ask. An inserted ad is visible to the very next question;
// derived state — the near-duplicate representatives behind
// Options.Dedup, and the classifier when Options.TrainOnIngest is set
// — is invalidated by table version and refreshed lazily, so answers
// always reflect the current corpus without rebuilding the system. See
// the repository root package documentation for the full invalidation
// contract.
//
// # Durability
//
// By default the corpus lives in memory and a restart rebuilds the
// synthetic environment, losing every live-ingested ad. Setting
// Options.DataDir makes the store durable: Open recovers the corpus
// from the directory's snapshot and write-ahead log, and every
// subsequent InsertAd/DeleteAd is logged and fsync'd before it
// returns — a killed process loses nothing it acknowledged.
// System.Checkpoint writes a fresh snapshot and
// truncates the log (also triggered automatically when the log
// outgrows core.Config.CompactBytes); System.Close checkpoints and
// releases the store, so a graceful shutdown replays nothing on the
// next start; System.Status reports per-domain corpus versions plus
// the checkpoint/WAL state. The on-disk formats and the recovery
// contract are documented in the repository root package and
// internal/persist.
//
// # Replication
//
// A durable system doubles as a replication primary: its WAL is the
// stream and its snapshot the state transfer. OpenPeer builds the one
// kind of follower, a durable node on its own data directory; fed the
// primary's log (internal/replica tails it over long-polled HTTP;
// `cqadsweb -replicate-from URL -data DIR` wires the whole role), it
// applies every operation in sequence order, logs it to its own WAL
// and answers Ask bit-identically to the primary. A fresh directory
// starts from one snapshot transfer, which refuses a follower hosting
// a domain the primary lacks; after that it streams, a restarted
// follower resumes from its own cursor, and only a primary that has
// compacted past that cursor costs another transfer. Followers reject
// InsertAd/DeleteAd with ErrReadOnlyReplica until System.Promote (the
// manual-failover escape hatch, also POST /api/repl/promote), after
// which they write durably. System.Status's Replication block reports
// the node's role, applied/observed sequence cursors and lag. The full protocol and consistency
// guarantees are documented in the repository root package.
//
// # Failover
//
// Replication heals itself when nodes are symmetric. OpenPeer builds a
// replica-set member: a durable node that recovers from its own
// snapshot + WAL, spools every operation it applies from a leader into
// that same log, and can therefore be elected and serve the stream
// itself. An internal/failover Agent on each member (`cqadsweb
// -replica-set a,b,c -advertise URL`) runs lease-based leader
// election: the leader heartbeats every member, a follower whose lease
// lapses campaigns at the next epoch, and votes enforce log freshness
// (highest applied epoch, then sequence), so only a member holding
// every quorum-acked write can win. Epochs fence the log — every WAL
// frame is stamped with the term that produced it, a deposed leader's
// un-replicated suffix fails the stream's log-matching check (HTTP
// 409) and the node resets from the new leader's snapshot,
// dropping the divergent writes.
//
// Durability above local disk is per write: the WithAck ingest
// variants (and the webui's ?ack= parameter) take AckLocal — the
// default, confirmed on the local fsync'd WAL — or AckQuorum,
// confirmed only after Options.ReplicaSet/2+1 members have durably
// applied the write, so it survives the leader dying the next instant.
// Follower acknowledgements ride the existing WAL long-poll (a
// follower's poll cursor is its durable apply position); a write that
// cannot reach a majority within Options.AckTimeout returns
// ErrQuorumUnavailable (HTTP 202: durable locally, id assigned,
// retrying would duplicate). Ingest admission control sheds load with
// ErrOverloaded (HTTP 429 + Retry-After) when the WAL backlog passes
// Options.MaxWALBytes or Options.MaxPendingQuorum quorum writes are
// already queued. The election protocol, fencing rules and quorum
// arithmetic are documented in internal/failover and internal/core.
//
// # Sharding
//
// Writes scale by splitting the eight domains across processes.
// Options.Domains builds a SHARD: a System hosting (populating,
// persisting, replicating) only the named domains, byte-identical per
// domain to a monolith built from the same Seed, and rejecting ingest
// addressed to other domains with core.ErrNotHosted. A shard front
// tier (internal/shard; `cqadsweb -shards "cars=http://a,..."`)
// classifies each question once with NewQuestionClassifier — the same
// construction a monolith classifies with, built from the same
// Seed/AdsPerDomain — and forwards it to the owning shard, so a
// sharded cluster answers Ask bit-identically to a single
// process; an unreachable shard degrades only its own domains. Shards
// compose with replication: a durable shard ships its (hosted-only)
// WAL to followers built with the same Options.Domains. The sharding
// model is documented in the repository root package.
//
// # Load & latency
//
// A durable system group-commits its ingest: concurrent single-record
// InsertAd/DeleteAd calls are coalesced by a committer goroutine into
// one WAL append + one fsync per batch, with unchanged semantics —
// log order equals mutation order, an ack (local or quorum) still
// means the write is durable, a failed batch latches the store with
// nobody acked, and a lone writer never waits. At 8
// concurrent writers group commit sustained roughly 3x the insert
// throughput of the per-call-fsync path it replaced. Service latency is observable end to end: every
// interesting webui endpoint records into a lock-striped power-of-two
// histogram and GET /api/status reports cumulative, reset-free
// per-endpoint counts and p50/p90/p99/p999; the shard front tier
// learns per-group read latency the same way and HEDGES slow or
// failed reads against another replica-set member (first 200 wins,
// loser cancelled, counters in the front tier's status), replacing
// the degrade-to-error window during a member restart. The histogram
// model, group-commit design and hedging policy are documented in the
// repository root package.
//
// # Static guarantees
//
// The contracts this package advertises — bit-identical answers run to
// run, errors.Is-matchable typed errors, WAL order equal to mutation
// order — are enforced mechanically by the repository's own analyzer
// suite (internal/analysis; `go run ./cmd/cqadslint ./...`, or
// `go vet -vettool=$(which cqadslint) ./...`): determinism (no map-
// iteration-order leaks, no wall clock or randomness) in the answer
// path, annotated lock discipline on the shared structures, typed
// error contracts at both API edges, and crash-safe snapshot/WAL
// ordering in the persistence layer. See the root package doc's
// "Static guarantees" section for the analyzer-by-analyzer detail.
package cqads

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/adsgen"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/qlog"
	"repro/internal/questions"
	"repro/internal/schema"
	"repro/internal/sqldb"
	"repro/internal/text"
	"repro/internal/wsmatrix"
)

// Re-exported core types: the system, its configuration and results.
type (
	// System is a running CQAds instance.
	System = core.System
	// Config wires a System from explicit substrates.
	Config = core.Config
	// Result is the outcome of asking one question.
	Result = core.Result
	// Answer is one retrieved ad.
	Answer = core.Answer
	// Status is System.Status's report: per-domain corpus state plus
	// persistence (checkpoint/WAL) state.
	Status = core.Status
	// DomainStatus is one domain's live-corpus state.
	DomainStatus = core.DomainStatus
	// PersistenceStatus reports the durability subsystem's state.
	PersistenceStatus = core.PersistenceStatus
	// ReplicationStatus reports a node's replication role and cursors.
	ReplicationStatus = core.ReplicationStatus
)

// ErrReadOnlyReplica is returned by InsertAd/DeleteAd on an
// unpromoted follower: writes go to the primary, or promote the
// follower for manual failover (System.Promote, or the webui's
// POST /api/repl/promote).
var ErrReadOnlyReplica = core.ErrReadOnlyReplica

// Replica-set error surface (see the Failover section above). A
// rejected write on an unpromoted replica matches both
// ErrReadOnlyReplica and ErrNotLeader.
var (
	// ErrNotLeader marks a write addressed to a node that is not its
	// replica set's current leader; re-resolve via GET /api/repl/leader.
	ErrNotLeader = core.ErrNotLeader
	// ErrQuorumUnavailable reports an AckQuorum write that is durable
	// locally but did not reach a majority within the ack timeout.
	ErrQuorumUnavailable = core.ErrQuorumUnavailable
	// ErrOverloaded reports ingest admission control shedding load
	// (HTTP 429 at the web layer); nothing was written.
	ErrOverloaded = core.ErrOverloaded
)

// AckLevel is a write's durability requirement — AckLocal (the
// default: confirmed on the local fsync'd WAL) or AckQuorum (confirmed
// once a majority of the replica set has durably applied it), accepted
// by the WithAck ingest variants and the webui's ?ack= parameter.
type AckLevel = core.AckLevel

const (
	AckLocal  = core.AckLocal
	AckQuorum = core.AckQuorum
)

// Schema types for callers defining their own ads domains.
type (
	// Schema describes one ads domain relation.
	Schema = schema.Schema
	// Attribute is one column with its Type I/II/III class.
	Attribute = schema.Attribute
	// Superlative maps a superlative keyword to its attribute.
	Superlative = schema.Superlative
)

// Attribute type classes (Sec. 4.1.1 of the paper).
const (
	TypeI   = schema.TypeI
	TypeII  = schema.TypeII
	TypeIII = schema.TypeIII
)

// DefaultMaxAnswers is the paper's 30-answer cutoff.
const DefaultMaxAnswers = core.DefaultMaxAnswers

// New builds a System from an explicit configuration (see core.Config).
func New(cfg Config) (*System, error) { return core.New(cfg) }

// Options configures Open's bundled environment.
type Options struct {
	// Seed drives every synthetic component deterministically.
	Seed int64
	// AdsPerDomain is the table size per domain (default 500, the
	// paper's seed-ads count).
	AdsPerDomain int
	// Domains restricts the hosted domains (default: all eight) —
	// shard mode. The System populates, persists and answers only
	// these domains, built byte-identically to the same domains in a
	// full environment with the same Seed, and refuses ingest
	// addressed to the other (known, but empty and unhosted) domains
	// with core.ErrNotHosted.
	Domains []string
	// MaxAnswers caps answers per question (default 30).
	MaxAnswers int
	// UseSynonyms installs the shipped transformation rules
	// ("stick shift" → manual); Sec. 6 extension (iii).
	UseSynonyms bool
	// StrictBoolean honours explicit AND/OR operators instead of the
	// paper's strip-and-fall-back; Sec. 6 extension (i).
	StrictBoolean bool
	// Dedup filters near-duplicate listings out of answer lists;
	// Sec. 6 extension (iv).
	Dedup bool
	// TrainOnIngest folds ads inserted through System.InsertAd into
	// the classifier's training set for their domain.
	TrainOnIngest bool
	// DataDir enables durability: the system recovers from the
	// directory's snapshot + write-ahead log at Open and logs every
	// subsequent ingest operation before returning. Empty keeps the
	// store in memory only.
	DataDir string
	// CompactBytes is the WAL size that triggers automatic
	// compaction; 0 uses core.DefaultCompactBytes, negative disables
	// automatic compaction.
	CompactBytes int64
	// ReplicaSet is the size of the replica set this node belongs to
	// (counting itself). It defines the majority AckQuorum writes wait
	// for: ReplicaSet/2 follower acknowledgements plus the local
	// append. 0 or 1 makes AckQuorum equivalent to AckLocal.
	ReplicaSet int
	// AckTimeout bounds an AckQuorum write's wait for follower
	// acknowledgements; 0 uses core.DefaultAckTimeout.
	AckTimeout time.Duration
	// MaxPendingQuorum caps concurrently waiting AckQuorum writes
	// before admission control answers ErrOverloaded; 0 uses
	// core.DefaultMaxPendingQuorum, negative disables the check.
	MaxPendingQuorum int
	// MaxWALBytes is the WAL backlog beyond which ingest admission
	// control sheds writes with ErrOverloaded; 0 uses
	// core.DefaultMaxWALBytes, negative disables the check.
	MaxWALBytes int64
	// Partitions, when > 1, builds a hash PARTITION of a single domain:
	// Options.Domains must name exactly one domain, and the System
	// hosts only the ads whose key (RowID) hashes into slice
	// (PartitionIndex, Partitions) of internal/partition's key space.
	// The synthetic corpus is generated and the classifier trained
	// exactly as the monolith's — both are derived before the partition
	// filter drops the out-of-slice rows (their RowID slots stay
	// allocated as tombstones), so every partition routes and ranks
	// identically to a monolith and a scatter/merge over all partitions
	// of a domain answers bit-identically to it. Partitions must be a
	// power of two; 0 or 1 hosts whole domains.
	Partitions uint32
	// PartitionIndex selects this node's hash slice; < Partitions.
	PartitionIndex uint32
}

// Open builds a ready-to-query System over the synthetic eight-domain
// environment: generated ads, simulated query logs (TI-matrix), the
// synthetic-corpus WS-matrix, and a JBBSM classifier trained on
// generated questions. With Options.DataDir set, the synthetic
// environment is only the first-run baseline: an existing data
// directory's snapshot + WAL replace and replay the corpus (see
// Durability above).
func Open(opts Options) (*System, error) {
	cfg, err := buildEnv(opts)
	if err != nil {
		return nil, err
	}
	return core.Open(cfg)
}

// OpenPeer builds a follower: a durable node (opts.DataDir is
// required) that starts read-only, recovers its corpus from its own
// snapshot + WAL like Open, and spools every operation it later
// applies from a leader into that same log — so it survives restarts,
// and can be elected and serve the replication stream itself. Build
// it with the primary's Seed/AdsPerDomain/Domains: everything a
// snapshot does not carry (schemas, TI/WS similarity matrices, the
// classifier's construction) comes from opts, and a fresh directory
// takes its tables and classifier state from a snapshot transfer
// before it streams. Options.Domains may
// name a subset of the primary's domains and Partitions/PartitionIndex
// a child slice of its slice. An internal/replica Follower feeds it
// (`cqadsweb -replicate-from URL -data DIR`); an internal/failover
// Agent manages it in a replica set (`cqadsweb -replica-set a,b,c`).
// Set opts.ReplicaSet so quorum-acked writes know their majority.
func OpenPeer(opts Options) (*System, error) {
	cfg, err := buildEnv(opts)
	if err != nil {
		return nil, err
	}
	return core.OpenPeer(cfg)
}

// canonicalIndex places a domain in schema.DomainNames — the seed
// derivations below key on it, NOT on the domain's position in a
// possibly-restricted Options.Domains list, so a shard hosting a
// subset builds byte-identical tables, matrices and training sets for
// its domains to the ones a full monolith builds. That identity is
// what lets a sharded cluster answer bit-identically to a monolith.
func canonicalIndex(domain string) (int, error) {
	for i, d := range schema.DomainNames {
		if d == domain {
			return i, nil
		}
	}
	return 0, fmt.Errorf("cqads: unknown domain %q (valid: %s)", domain, strings.Join(schema.DomainNames, ", "))
}

// buildEnv assembles the synthetic environment: generated ads,
// simulated query logs (TI-matrix), the synthetic-corpus WS-matrix,
// and a JBBSM classifier trained on generated questions — all
// deterministic in opts.Seed. With Options.Domains restricted, only
// the hosted tables are populated and trained on, but every per-domain
// artifact is built exactly as the full environment builds it (the
// WS-matrix always spans all eight schemas), so the subset environment
// is a projection of the monolith environment, never a reshuffle.
func buildEnv(opts Options) (core.Config, error) {
	return buildEnvFor(opts, false)
}

// buildEnvFor is buildEnv with a classifier-only mode: the front tier
// needs the trained classifier but never ranks answers, so the TI and
// WS matrices — roughly half the otherwise-discarded startup work —
// are skipped.
func buildEnvFor(opts Options, classifierOnly bool) (core.Config, error) {
	if opts.AdsPerDomain <= 0 {
		opts.AdsPerDomain = 500
	}
	domains := opts.Domains
	if len(domains) == 0 {
		domains = schema.DomainNames
	}
	hosted := make(map[string]bool, len(domains))
	for _, d := range domains {
		if _, err := canonicalIndex(d); err != nil {
			return core.Config{}, err
		}
		hosted[d] = true
	}
	// Schema build covers all eight domains so a shard can tell a
	// known-but-elsewhere domain (typed core.ErrNotHosted, HTTP 421)
	// from a truly unknown one; only the hosted tables are populated,
	// get TI matrices, and train the classifier.
	db := sqldb.NewDB()
	ti := make(map[string]*qlog.TIMatrix, len(domains))
	for ci, d := range schema.DomainNames {
		s := schema.ByName(d)
		if !hosted[d] {
			if _, err := db.CreateTable(s); err != nil {
				return core.Config{}, err
			}
			continue
		}
		g := adsgen.NewGenerator(opts.Seed + int64(ci)*7919)
		if _, err := g.Populate(db, s, opts.AdsPerDomain); err != nil {
			return core.Config{}, err
		}
		if classifierOnly {
			continue
		}
		sim := qlog.NewSimulator(s, opts.Seed+101)
		ti[d] = qlog.BuildTIMatrix(sim.Simulate(d, 500))
	}
	// The WS-matrix is shared vocabulary knowledge: build it over all
	// eight schemas regardless of the hosted subset, so word-pair
	// similarities (and therefore ranked partial answers) agree across
	// every topology slicing the same seed.
	var ws *wsmatrix.Matrix
	if !classifierOnly {
		allSchemas := make([]*schema.Schema, len(schema.DomainNames))
		for i, d := range schema.DomainNames {
			allSchemas[i] = schema.ByName(d)
		}
		ws = wsmatrix.BuildForDomains(allSchemas, 40, opts.Seed+202)
	}

	cls := classify.NewJBBSM()
	for ci, d := range schema.DomainNames {
		if !hosted[d] {
			continue
		}
		tbl, _ := db.TableForDomain(d)
		gen := questions.NewGenerator(tbl, opts.Seed+303+int64(ci))
		train := gen.Generate(200, questions.DefaultOptions())
		docs := make([][]string, len(train))
		for j := range train {
			docs[j] = text.RemoveStopwords(text.Words(train[j].Text))
		}
		cls.Train(d, docs)
	}
	if opts.Partitions > 1 && !classifierOnly {
		// Partition filter, applied AFTER classifier training: the
		// training questions are generated from the full table, so every
		// partition (and the monolith) trains the identical classifier;
		// only then does each partition drop the rows its slice does not
		// own. Deletion keeps the RowID slots as tombstones — ad keys are
		// global, a partition simply has holes where other partitions'
		// ads live.
		slice := partition.Slice{Index: opts.PartitionIndex, Count: opts.Partitions}
		if err := slice.Validate(); err != nil {
			return core.Config{}, fmt.Errorf("cqads: Options.Partitions/PartitionIndex: %w", err)
		}
		if len(opts.Domains) != 1 {
			return core.Config{}, fmt.Errorf("cqads: Options.Partitions > 1 requires exactly one domain in Options.Domains, got %d", len(opts.Domains))
		}
		tbl, _ := db.TableForDomain(opts.Domains[0])
		for _, id := range tbl.AllRowIDs() {
			if !slice.ContainsKey(uint64(id)) {
				if err := tbl.Delete(id); err != nil {
					return core.Config{}, err
				}
			}
		}
	}
	cfg := core.Config{
		DB:               db,
		Classifier:       cls,
		TI:               ti,
		WS:               ws,
		MaxAnswers:       opts.MaxAnswers,
		UseSynonyms:      opts.UseSynonyms,
		StrictBoolean:    opts.StrictBoolean,
		Dedup:            opts.Dedup,
		TrainOnIngest:    opts.TrainOnIngest,
		DataDir:          opts.DataDir,
		CompactBytes:     opts.CompactBytes,
		ReplicaSet:       opts.ReplicaSet,
		AckTimeout:       opts.AckTimeout,
		MaxPendingQuorum: opts.MaxPendingQuorum,
		MaxWALBytes:      opts.MaxWALBytes,
		Partitions:       opts.Partitions,
		PartitionIndex:   opts.PartitionIndex,
	}
	if len(opts.Domains) > 0 {
		// Shard mode: the System hosts (and snapshots, replays,
		// replicates) only these domains; ingest addressed elsewhere
		// fails with core.ErrNotHosted.
		cfg.Domains = append([]string(nil), opts.Domains...)
	}
	return cfg, nil
}

// QuestionClassifier is a standalone routing classifier for a shard
// front tier: it classifies questions into domains exactly as a
// monolith System built from the same Options would, without holding
// any ads corpus of its own at serving time. It implements the
// internal/shard Classifier interface.
type QuestionClassifier struct {
	cls classify.Classifier
}

// ClassifyQuestion routes one question to its ads domain.
func (qc *QuestionClassifier) ClassifyQuestion(question string) (string, error) {
	return core.ClassifyQuestion(qc.cls, question)
}

// NewQuestionClassifier builds the routing classifier for a shard
// front tier. It trains over the full eight-domain environment —
// regardless of opts.Domains — because the front tier must route
// across every domain the cluster hosts; Seed and AdsPerDomain must
// match the shards' so routing decisions equal a monolith's.
func NewQuestionClassifier(opts Options) (*QuestionClassifier, error) {
	opts.Domains = nil
	opts.DataDir = ""
	cfg, err := buildEnvFor(opts, true)
	if err != nil {
		return nil, err
	}
	return &QuestionClassifier{cls: cfg.Classifier}, nil
}

// DomainNames lists the eight built-in ads domains.
func DomainNames() []string {
	out := make([]string, len(schema.DomainNames))
	copy(out, schema.DomainNames)
	return out
}
