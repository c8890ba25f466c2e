// Package core wires the substrates into CQAds, the closed-domain
// question-answering system of the paper: classification (Sec. 3),
// trie tagging and repair (Sec. 4.1-4.2), Boolean interpretation
// (Sec. 4.4), SQL compilation and execution (Sec. 4.3, 4.5), and
// ranked partial matching (Sec. 4.3.1-4.3.2).
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/boolean"
	"repro/internal/classify"
	"repro/internal/dedup"
	"repro/internal/partition"
	"repro/internal/qlog"
	"repro/internal/rank"
	"repro/internal/sql"
	"repro/internal/sql/plan"
	"repro/internal/sqldb"
	"repro/internal/trie"
	"repro/internal/wsmatrix"
)

// DefaultMaxAnswers is the paper's answer cutoff: 88% of users view
// only the first 30 results (Sec. 4.3.1), and the survey's ideal
// answer count averaged 26 (Sec. 5.1).
const DefaultMaxAnswers = 30

// Config assembles a System.
type Config struct {
	// DB holds one populated table per ads domain.
	DB *sqldb.DB
	// Domains, when non-empty, restricts the System to hosting only
	// these domains (shard mode): taggers and similarity bundles are
	// built only for them, Ask/AskInDomain and ingestion refuse other
	// domains with a typed *NotHostedError, snapshots export only the
	// hosted tables, and recovery replay skips snapshot sections and
	// WAL operations tagged with other domains. Every entry must name
	// a table present in DB. Empty hosts everything DB holds.
	Domains []string
	// Classifier routes questions to domains; nil disables
	// classification (AskInDomain still works).
	Classifier classify.Classifier
	// TI maps domain name to its TI-matrix (Type I similarity).
	TI map[string]*qlog.TIMatrix
	// WS is the shared word-similarity matrix (Type II similarity).
	WS *wsmatrix.Matrix
	// MaxAnswers caps returned answers; 0 means DefaultMaxAnswers.
	MaxAnswers int
	// RelaxationDepth is how many conditions the partial matcher may
	// drop simultaneously; 1 is the paper's N−1 strategy, 2 adds the
	// N−2 sweep it discusses and rejects. 0 means 1.
	RelaxationDepth int
	// UseSynonyms installs the shipped transformation rules
	// ("stick shift" → manual) into each domain tagger (Sec. 6
	// future work (iii)).
	UseSynonyms bool
	// StrictBoolean honours explicit AND/OR operators with standard
	// precedence instead of stripping them and falling back to the
	// implicit rules (Sec. 6 future work (i) / Sec. 4.4.2).
	StrictBoolean bool
	// Dedup removes near-duplicate listings from answer lists so the
	// 30-answer cutoff shows distinct ads (Sec. 6 future work (iv)).
	// Dedup state is versioned against each table: InsertAd/DeleteAd
	// invalidate it, and the next question lazily recomputes the
	// representatives over the current rows.
	Dedup bool
	// TrainOnIngest feeds each ad inserted through System.InsertAd to
	// the classifier as a training document of its domain, so routing
	// keeps up with vocabulary that first appears in live ads. Off by
	// default: the paper trains the classifier on questions, and ad
	// text skews the class-conditional model toward listing phrasing.
	TrainOnIngest bool
	// DataDir enables durability: Open recovers the store from the
	// directory's snapshot + write-ahead log and every subsequent
	// InsertAd/DeleteAd is logged before the call returns, so a
	// process kill loses nothing. Empty disables persistence (New
	// ignores this field entirely; use Open).
	DataDir string
	// CompactBytes is the WAL size that triggers a background
	// compaction (checkpoint + log truncation). 0 means
	// DefaultCompactBytes; negative disables automatic compaction
	// (explicit Checkpoint calls still work).
	CompactBytes int64
	// ReplicaSet is the total number of nodes in this node's replica
	// set, itself included. Values above 1 arm quorum-acked writes:
	// an AckQuorum ingest confirms only after ReplicaSet/2+1 nodes
	// (the primary counts as one) have durably applied it. 0 or 1
	// means no replica set — AckQuorum degenerates to local
	// durability.
	ReplicaSet int
	// AckTimeout bounds how long an AckQuorum write waits for
	// follower acknowledgements before returning
	// ErrQuorumUnavailable (the write is still locally durable). 0
	// means DefaultAckTimeout.
	AckTimeout time.Duration
	// MaxPendingQuorum caps the number of AckQuorum writes waiting
	// for follower acknowledgements at once; past it, new quorum
	// writes are refused with ErrOverloaded instead of queueing
	// unboundedly behind a slow or partitioned replica set. 0 means
	// DefaultMaxPendingQuorum; negative disables the cap.
	MaxPendingQuorum int
	// MaxWALBytes is the ingest admission threshold on WAL backlog:
	// when the log exceeds it (compaction is wedged or cannot keep
	// up), mutations are refused with ErrOverloaded until the backlog
	// drains. 0 means DefaultMaxWALBytes; negative disables the
	// check.
	MaxWALBytes int64
	// Partitions, when > 1, makes this System host one hash slice of a
	// single domain's key space instead of the whole domain: only ads
	// whose partition.KeyHash falls in slice (PartitionIndex,
	// Partitions) are admitted, recovered, or replicated here. The
	// count must be a power of two and the System must host exactly
	// one domain (Config.Domains with one entry). 0 or 1 hosts whole
	// domains, exactly as before.
	Partitions uint32
	// PartitionIndex selects which of the Partitions hash slices this
	// System hosts; must be < Partitions.
	PartitionIndex uint32
}

// DefaultCompactBytes is the default WAL size that triggers automatic
// compaction when Config.CompactBytes is 0.
const DefaultCompactBytes = 4 << 20

// System is a running CQAds instance. It is safe for concurrent use,
// including mutation: InsertAd/DeleteAd may run while other goroutines
// Ask. See the package documentation for the invalidation contract.
type System struct {
	db         *sqldb.DB
	classifier classify.Classifier
	taggers    map[string]*trie.Tagger
	sims       map[string]*rank.Similarity
	dedups     map[string]*dedupState
	// domains is the hosted-domain list (Config.Domains, or every DB
	// domain); hosted is its membership set, and sharded reports
	// whether Config.Domains restricted the System to a subset — only
	// then do recovery and replication filter foreign-domain data
	// instead of treating it as corruption.
	domains []string
	hosted  map[string]bool
	sharded bool
	// partitioned reports Config.Partitions > 1: the single hosted
	// domain is one hash slice of a wider key space. slice holds the
	// current slice; it only ever narrows (RetirePartition after a
	// rebalance hands half the slice to another node), so it lives in
	// an atomic pointer that readers load without a lock.
	partitioned   bool
	slice         atomic.Pointer[partition.Slice]
	maxAnswers    int
	depth         int
	strict        bool
	trainOnIngest bool
	// cfg retains the build configuration for in-place rebuilds: a
	// re-bootstrap (ResetToSnapshot) restores into the same DB and
	// classifier, and a deposed primary demoting to follower reuses
	// it as the follower config.
	cfg Config
	// persist is non-nil when the system was built by Open with
	// Config.DataDir set; it owns the snapshot + WAL store and
	// serializes ingestion so the log order equals the mutation order.
	persist *persister
	// follower is non-nil when the system was built by OpenFollower
	// (memory-only replica) or OpenPeer (durable replica-set member):
	// it owns the apply lock and replication cursor, and (until
	// Promote) makes the system reject direct writes.
	follower *followerState
	// quorum tracks follower apply acknowledgements for quorum-acked
	// writes; always present, inert when Config.ReplicaSet <= 1.
	quorum *quorumState
	// plans caches compiled streaming query plans keyed on question
	// shape (domain + expression skeleton). A plan depends on schema
	// and shape only, so live ingest never invalidates an entry.
	plans *plan.Cache
}

// dedupState caches one domain's near-duplicate representatives
// together with the table version they were computed at. Ingestion
// invalidates the cache simply by moving the table version; the next
// question that needs the representatives recomputes them under mu.
type dedupState struct {
	mu      sync.Mutex
	res     *dedup.Result
	version uint64
}

// Answer is one retrieved ad.
type Answer struct {
	ID sqldb.RowID
	// Record is the ad's column → value map. It is a read-only view
	// shared with other answers for the same row (sqldb.RecordView);
	// callers that need to modify it must copy it first.
	Record map[string]sqldb.Value
	// Exact reports whether the ad satisfies every condition.
	Exact bool
	// RankSim is Eq. 5's score for partially-matched answers (exact
	// answers carry N, the maximum possible).
	RankSim float64
	// DroppedCond is the index of the relaxed condition for a partial
	// answer, -1 for exact answers.
	DroppedCond int
	// SimilarityUsed names the measure that scored the partial match
	// ("TI_Sim on make", "Num_Sim on price", ...), as in Table 2.
	SimilarityUsed string
}

// Result is the full outcome of asking one question.
type Result struct {
	Question string
	// Domain the question was routed to.
	Domain string
	// Tags is the identifier list produced by the trie.
	Tags []trie.Tag
	// Interpretation is the normalized information need.
	Interpretation *boolean.Interpretation
	// SQL is the generated statement (Sec. 4.5).
	SQL string
	// Answers holds up to MaxAnswers ads, exact matches first, then
	// ranked partial matches.
	Answers []Answer
	// ExactCount is the number of exact answers in Answers.
	ExactCount int
	// Elapsed is the end-to-end processing time.
	Elapsed time.Duration
}

// New builds a System from cfg. Every hosted domain table in cfg.DB
// gets a tagger and a similarity bundle; Config.Domains restricts the
// hosted set (shard mode), empty hosts everything.
func New(cfg Config) (*System, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("core: Config.DB is required")
	}
	s := &System{
		cfg:           cfg,
		db:            cfg.DB,
		classifier:    cfg.Classifier,
		taggers:       make(map[string]*trie.Tagger),
		sims:          make(map[string]*rank.Similarity),
		hosted:        make(map[string]bool),
		maxAnswers:    cfg.MaxAnswers,
		depth:         cfg.RelaxationDepth,
		strict:        cfg.StrictBoolean,
		trainOnIngest: cfg.TrainOnIngest,
	}
	if s.maxAnswers <= 0 {
		s.maxAnswers = DefaultMaxAnswers
	}
	if s.depth <= 0 {
		s.depth = 1
	}
	if len(cfg.Domains) > 0 {
		s.sharded = true
		for _, domain := range cfg.Domains {
			if _, ok := cfg.DB.TableForDomain(domain); !ok {
				return nil, fmt.Errorf("core: Config.Domains names %q but the database has no such table", domain)
			}
			if s.hosted[domain] {
				return nil, fmt.Errorf("core: Config.Domains names %q twice", domain)
			}
			s.hosted[domain] = true
			s.domains = append(s.domains, domain)
		}
	} else {
		s.domains = cfg.DB.Domains()
		for _, domain := range s.domains {
			s.hosted[domain] = true
		}
	}
	for _, domain := range s.domains {
		tbl, _ := cfg.DB.TableForDomain(domain)
		sch := tbl.Schema()
		if cfg.UseSynonyms {
			s.taggers[domain] = trie.NewTaggerWithSynonyms(sch)
		} else {
			s.taggers[domain] = trie.NewTagger(sch)
		}
		s.sims[domain] = &rank.Similarity{
			Schema: sch,
			TI:     cfg.TI[domain],
			WS:     cfg.WS,
		}
	}
	sl := partition.Whole()
	if cfg.Partitions > 1 {
		sl = partition.Slice{Index: cfg.PartitionIndex, Count: cfg.Partitions}
		if err := sl.Validate(); err != nil {
			return nil, fmt.Errorf("core: Config.Partitions/PartitionIndex: %w", err)
		}
		if len(s.domains) != 1 {
			return nil, fmt.Errorf("core: partitioned mode hosts exactly one domain, Config.Domains names %d", len(s.domains))
		}
		if cfg.Dedup {
			// Near-duplicate representatives are chosen over the local
			// rows; two partitions of one domain would elect different
			// representatives and break cross-topology equivalence.
			return nil, fmt.Errorf("core: Dedup cannot be combined with Partitions > 1")
		}
		s.partitioned = true
	}
	s.slice.Store(&sl)
	if cfg.Dedup {
		s.dedups = make(map[string]*dedupState)
		for _, domain := range s.domains {
			tbl, _ := cfg.DB.TableForDomain(domain)
			s.dedups[domain] = &dedupState{}
			s.dedupFor(domain, tbl) // warm the cache at the build version
		}
	}
	s.quorum = newQuorumState(cfg)
	s.plans = plan.NewCache(0)
	return s, nil
}

// ErrNotHosted marks every *NotHostedError: the domain exists but this
// System is a shard that does not host it (Config.Domains). Callers
// route the request to the owning shard instead of treating it as a
// bad request.
var ErrNotHosted = errors.New("core: domain is not hosted by this shard")

// NotHostedError reports an operation addressed to a known domain that
// this shard does not host. errors.Is(err, ErrNotHosted) matches it.
type NotHostedError struct {
	// Domain is the requested domain.
	Domain string
	// Hosted lists the domains this shard does host.
	Hosted []string
}

func (e *NotHostedError) Error() string {
	return fmt.Sprintf("core: domain %q is not hosted by this shard (hosted: %s)",
		e.Domain, strings.Join(e.Hosted, ", "))
}

// Is makes errors.Is(err, ErrNotHosted) succeed.
func (e *NotHostedError) Is(target error) bool { return target == ErrNotHosted }

// hostedTable resolves a domain to its table, distinguishing a domain
// unknown to the database from one present but not hosted by this
// shard (typed *NotHostedError).
func (s *System) hostedTable(domain string) (*sqldb.Table, error) {
	tbl, ok := s.db.TableForDomain(domain)
	if !ok {
		return nil, fmt.Errorf("core: unknown domain %q", domain)
	}
	if !s.hosted[domain] {
		return nil, &NotHostedError{Domain: domain, Hosted: s.Domains()}
	}
	return tbl, nil
}

// dedupFor returns the current near-duplicate representatives of a
// domain, recomputing them when the table has changed since the
// cached pass. Returns nil when dedup is disabled.
func (s *System) dedupFor(domain string, tbl *sqldb.Table) *dedup.Result {
	st := s.dedups[domain]
	if st == nil {
		return nil
	}
	// The version is read before the scan: a mutation that lands
	// mid-scan moves the table past the recorded version, so the next
	// question recomputes rather than trusting a torn pass.
	v := tbl.Version()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.res == nil || st.version != v {
		st.res = dedup.Dedup(tbl, dedup.DefaultOptions())
		st.version = v
	}
	return st.res
}

// Domains lists the domains the system can answer questions in — the
// hosted subset when Config.Domains restricted it (shard mode).
func (s *System) Domains() []string {
	out := make([]string, len(s.domains))
	copy(out, s.domains)
	return out
}

// Tagger exposes the tagger of a domain (used by experiments).
func (s *System) Tagger(domain string) *trie.Tagger { return s.taggers[domain] }

// Similarity exposes a domain's similarity bundle.
func (s *System) Similarity(domain string) *rank.Similarity { return s.sims[domain] }

// DB exposes the underlying database.
func (s *System) DB() *sqldb.DB { return s.db }

// Ask classifies the question into a domain (Sec. 3) and answers it.
func (s *System) Ask(question string) (*Result, error) {
	if s.classifier == nil {
		return nil, fmt.Errorf("core: Ask requires a classifier; use AskInDomain")
	}
	domain, err := ClassifyQuestion(s.classifier, question)
	if err != nil {
		return nil, err
	}
	return s.AskInDomain(domain, question)
}

// ClassifyQuestion routes one question to its ads domain through c,
// applying exactly the tokenization System.Ask uses. Exported so a
// front tier (internal/shard) can classify once and forward to the
// owning shard with the same routing decision a monolith would make.
func ClassifyQuestion(c classify.Classifier, question string) (string, error) {
	if c == nil {
		return "", fmt.Errorf("core: no classifier configured")
	}
	domain, _, err := c.Classify(questionTokens(question))
	if err != nil {
		return "", fmt.Errorf("core: classifying question: %w", err)
	}
	return domain, nil
}

// AskInDomain answers a question against one ads domain, running the
// full pipeline: tagging → interpretation → incomplete-question
// resolution → SQL → exact answers → ranked partial answers.
func (s *System) AskInDomain(domain, question string) (*Result, error) {
	start := time.Now() //lint:cqads-ignore wallclock Elapsed is reporting metadata; answer content never depends on it
	tbl, err := s.hostedTable(domain)
	if err != nil {
		return nil, err
	}
	tagger := s.taggers[domain]
	sch := tbl.Schema()

	tags := tagger.Tag(question)
	in := s.interpretFor(sch, tags)

	res := &Result{
		Question:       question,
		Domain:         domain,
		Tags:           tags,
		Interpretation: in,
	}
	if in.Empty || in.ConditionCount() == 0 && in.Superlative == nil {
		// Contradiction (Rule 1c) or nothing recognized: no results.
		res.Elapsed = time.Since(start) //lint:cqads-ignore wallclock Elapsed is reporting metadata; answer content never depends on it
		return res, nil
	}

	sel := BuildSelect(sch, in, s.maxAnswers)
	res.SQL = sel.SQL()
	exactIDs, err := s.execWithSuperlative(tbl, sel, in)
	if err != nil {
		return nil, fmt.Errorf("core: executing %q: %w", res.SQL, err)
	}
	dd := s.dedupFor(domain, tbl)
	if dd != nil {
		exactIDs = dd.FilterAnswers(exactIDs)
	}
	exactScore := float64(maxGroupLen(in))
	for _, id := range exactIDs {
		res.Answers = append(res.Answers, Answer{
			ID:          id,
			Record:      tbl.RecordView(id),
			Exact:       true,
			RankSim:     exactScore,
			DroppedCond: -1,
		})
	}
	res.ExactCount = len(res.Answers)

	if res.ExactCount < s.maxAnswers {
		partial := s.partialAnswers(tbl, in, exactIDs, s.maxAnswers-res.ExactCount, dd, nil)
		res.Answers = append(res.Answers, partial...)
	}
	res.Elapsed = time.Since(start) //lint:cqads-ignore wallclock Elapsed is reporting metadata; answer content never depends on it
	return res, nil
}

// execSelect runs a generated SELECT through the plan cache: the
// statement's shape (domain + expression skeleton) resolves to a
// compiled streaming plan — near-always a cache hit, since millions
// of users ask the same few hundred tagged question templates — and
// the plan re-binds this statement's literals at run time.
func (s *System) execSelect(tbl *sqldb.Table, sel *sql.Select) ([]sqldb.RowID, error) {
	p, err := s.plans.Get(s.db, tbl.Schema().Domain, sel)
	if err != nil {
		return nil, err
	}
	return p.Run(s.db, sel)
}

// PlanCacheStats exposes the plan cache's lookup tallies and its
// current size. invalidations is always 0 — plans depend on schema and
// shape only, so nothing invalidates one — and is kept because bench/
// destructures four values.
func (s *System) PlanCacheStats() (hits, misses, invalidations int64, size int) {
	hits, misses, size = s.plans.Stats()
	return hits, misses, 0, size
}

// Explain renders the access plan res's question ran, rebuilt from
// res.Interpretation: BuildSelect is deterministic, so the statement
// is the one AskInDomain executed and printed as res.SQL. cached
// reports whether the plan cache holds that statement's shape, without
// bumping counters or recency — the EXPLAIN panel's hit/miss preview.
// A superlative runs only the WHERE of its ORDER BY plan and takes the
// extreme run, so its plan shows that instead of a sort; the cache is
// still checked for the ORDER BY statement, the key it ran under.
func (s *System) Explain(res *Result) (plan string, cached bool, err error) {
	if res.SQL == "" {
		return "", false, fmt.Errorf("core: no SQL was generated for %q", res.Question)
	}
	tbl, err := s.hostedTable(res.Domain)
	if err != nil {
		return "", false, err
	}
	sel := BuildSelect(tbl.Schema(), res.Interpretation, s.maxAnswers)
	cached = s.plans.Contains(tbl.Schema().Domain, sel)
	if res.Interpretation.Superlative == nil {
		plan, err = sql.Explain(s.db, sel)
		return plan, cached, err
	}
	where := *sel
	where.OrderBy, where.Desc, where.Limit = "", false, 0
	if plan, err = sql.Explain(s.db, &where); err != nil {
		return "", false, err
	}
	dir := "ASC"
	if sel.Desc {
		dir = "DESC"
	}
	plan += fmt.Sprintf("  extreme run on %s %s over the matches, no sort (superlative evaluated last)\n", sel.OrderBy, dir)
	if sel.Limit > 0 {
		plan += fmt.Sprintf("  limit %d (answer cutoff)\n", sel.Limit)
	}
	return plan, cached, nil
}

// execWithSuperlative runs the generated SQL through the plan cache,
// then applies superlative semantics: only records achieving the
// extreme value of the superlative attribute within the filtered set
// are exact answers (Sec. 4.3: superlatives are evaluated last, on
// the records retrieved by the other criteria), at most MaxAnswers of
// them in RowID order.
func (s *System) execWithSuperlative(tbl *sqldb.Table, sel *sql.Select, in *boolean.Interpretation) ([]sqldb.RowID, error) {
	if in.Superlative == nil {
		return s.execSelect(tbl, sel)
	}
	run, _, _, err := s.superlativeRun(tbl, sel, nil, s.maxAnswers)
	return run, err
}

// superlativeRun evaluates a superlative question's extreme run: the
// WHERE's matches, filtered to keep (when non-nil), reduced to the
// rows whose numeric superlative value is the extreme, in RowID order
// and capped at limit (0 = uncapped). It also returns the extreme and
// whether any row had a numeric value. The statement still resolves
// to the cached plan of its own ORDER BY shape, whose ORDER BY is the
// superlative (BuildSelect), but only the WHERE runs: the extreme run
// needs no sort, and only the run is copied out of the executor.
func (s *System) superlativeRun(tbl *sqldb.Table, sel *sql.Select, keep func(sqldb.RowID) bool, limit int) ([]sqldb.RowID, float64, bool, error) {
	p, err := s.plans.Get(s.db, tbl.Schema().Domain, sel)
	if err != nil {
		return nil, 0, false, err
	}
	return p.ExtremeRun(s.db, sel, keep, limit)
}

// questionTokens prepares a question for the classifier.
func questionTokens(q string) []string {
	return tokenizeForClassify(q)
}

// maxGroupLen returns the size of the largest conjunction, the N an
// exact answer fully satisfies.
func maxGroupLen(in *boolean.Interpretation) int {
	n := 0
	for i := range in.Groups {
		if len(in.Groups[i].Conds) > n {
			n = len(in.Groups[i].Conds)
		}
	}
	return n
}
