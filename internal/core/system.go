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
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sqldb"
	"repro/internal/trie"
	"repro/internal/work"
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
	// persist is non-nil when the system was built by Open with
	// Config.DataDir set; it owns the snapshot + WAL store and
	// serializes ingestion so the log order equals the mutation order.
	persist *persister
	// follower is non-nil when the system was built by OpenPeer: it
	// owns the apply lock and replication cursor, and (until Promote)
	// makes the system reject direct writes. A follower always has
	// persist.
	follower *followerState
	// quorum tracks follower apply acknowledgements for quorum-acked
	// writes; always present, inert when Config.ReplicaSet <= 1.
	quorum *quorumState
	// work sums the work counts of every ask answerIn ran; only tests
	// read it.
	work work.Sink
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
	// Record is the ad's row (sqldb.Row), taken in the same read view
	// as every other stage of the ask, so it is never the zero Row. It
	// reads the values the ad was inserted with, even if the ad is
	// deleted after the ask.
	Record sqldb.Row
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
			tbl.View(func(v sqldb.View) { s.dedupFor(domain, v) }) // warm the cache at the build version
		}
	}
	s.quorum = newQuorumState(cfg)
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

// dedupFor returns the near-duplicate representatives of a domain as
// v sees the table, recomputing them when the table has changed since
// the cached pass. Returns nil when dedup is disabled. No write lands
// while v is open, so the pass and the version it is recorded under
// agree.
func (s *System) dedupFor(domain string, v sqldb.View) *dedup.Result {
	st := s.dedups[domain]
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.res == nil || st.version != v.Version() {
		st.res = dedup.Dedup(v, dedup.DefaultOptions())
		st.version = v.Version()
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
// resolution → SQL → exact answers → ranked partial answers. Every
// stage from the exact answers on runs in answerIn, in one read view
// of the table, so no write lands between them.
func (s *System) AskInDomain(domain, question string) (*Result, error) {
	start := time.Now() //lint:cqads-ignore wallclock Elapsed is reporting metadata; answer content never depends on it
	tbl, err := s.hostedTable(domain)
	if err != nil {
		return nil, err
	}
	tags, in, sel := s.understand(domain, tbl.Schema(), question)
	res := &Result{
		Question:       question,
		Domain:         domain,
		Tags:           tags,
		Interpretation: in,
	}
	if sel != nil {
		res.SQL = sel.SQL()
		tbl.View(func(v sqldb.View) {
			res.Answers, res.ExactCount, _, _, err = answerIn(s, v, sel, in, part{dd: s.dedupFor(domain, v)}, asAnswer)
		})
		if err != nil {
			return nil, fmt.Errorf("core: executing %q: %w", res.SQL, err)
		}
	}
	res.Elapsed = time.Since(start) //lint:cqads-ignore wallclock Elapsed is reporting metadata; answer content never depends on it
	return res, nil
}

// understand runs the front of an ask in domain: tagging,
// interpretation and incomplete-question resolution, then the SQL. sel
// is nil when there is nothing to answer: a contradiction (Rule 1c) or
// nothing recognized.
func (s *System) understand(domain string, sch *schema.Schema, question string) (tags []trie.Tag, in *boolean.Interpretation, sel *sql.Select) {
	tags = s.taggers[domain].Tag(question)
	in = s.interpretFor(sch, tags)
	if in.Empty || in.ConditionCount() == 0 && in.Superlative == nil {
		return tags, in, nil
	}
	return tags, in, BuildSelect(sch, in, s.maxAnswers)
}

// part describes whom an ask's answers are for. The zero part is a
// monolith's whole answer.
type part struct {
	// keep is the hash-slice filter of a scatter leg: only rows it
	// accepts are answers. nil accepts every row.
	keep func(sqldb.RowID) bool
	// merged reports that the answers are one part of a scatter merge,
	// which alone knows the global extreme and the global exact count:
	// a superlative's extreme run is uncapped and its exact answers
	// carry their demotion ranking, and a superlative part ranks a full
	// MaxAnswers of partials.
	merged bool
	// dd holds the near-duplicate representatives when Dedup is on.
	// Only a monolith dedups: New refuses Dedup with partitions.
	dd *dedup.Result
}

// demotion is the ranking an exact answer of a merged superlative part
// falls back to when the merge finds a better extreme on another part
// (ScatterAnswer's Demote fields), with dropped -1 when the relaxation
// does not admit the answer; every other answer's is the zero
// demotion.
type demotion struct {
	rankSim        float64
	dropped        int
	similarityUsed string
}

// asAnswer is answerIn's answer constructor for a monolith ask: the
// answer itself.
func asAnswer(a Answer, _ demotion) Answer { return a }

// answerIn runs every stage of an ask that reads the table, in v, the
// ask's one view: the exact answers of sel with superlative semantics
// (Sec. 4.3: a superlative is evaluated last, on the records the other
// criteria retrieve, and only records achieving its extreme are exact
// answers), dedup, then the ranked partial answers (Sec. 4.3.1). Each
// answer is built by mk into one slice, exact answers first. It
// returns the answers, the number of exact ones, and a superlative's
// extreme and whether any row had one. A merged superlative part's
// extreme run is uncapped; every other exact set is capped at
// MaxAnswers in RowID order. The work the ask does is counted in its
// scratch and flushed to the System's work counts once, when it
// returns.
func answerIn[A any](s *System, v sqldb.View, sel *sql.Select, in *boolean.Interpretation, p part, mk func(Answer, demotion) A) (answers []A, exact int, extreme float64, hasExtreme bool, err error) {
	rs := relaxPool.Get().(*relaxScratch)
	defer func() {
		s.work.Flush(&rs.work)
		relaxPool.Put(rs)
	}()
	v = v.Counting(&rs.work)
	var ids []sqldb.RowID
	switch {
	case in.Superlative != nil:
		// The statement's ORDER BY is the superlative (BuildSelect), but
		// only the WHERE runs: the extreme run needs no sort, and only
		// the run is copied out of the executor.
		limit := s.maxAnswers
		if p.merged {
			limit = 0
		}
		ids, extreme, hasExtreme, err = sql.ExtremeRun(v, sel, p.keep, limit)
	case p.keep == nil:
		ids, err = sql.RunView(v, sel)
	default:
		// The statement's LIMIT applies before the slice filter, so
		// run unlimited, filter, then re-apply the cap.
		unlimited := *sel
		unlimited.Limit = 0
		var all []sqldb.RowID
		all, err = sql.RunView(v, &unlimited)
		for _, id := range all {
			if p.keep(id) {
				ids = append(ids, id)
				if len(ids) == s.maxAnswers {
					break
				}
			}
		}
	}
	if err != nil {
		return nil, 0, 0, false, err
	}
	if p.dd != nil {
		ids = p.dd.FilterAnswers(ids)
	}

	// A superlative part ranks a full MaxAnswers of partials: demotion
	// can shrink the global exact set below the local one, so its want
	// cannot be derived from local exacts. Otherwise the global exact
	// count is at least the local one, so the global want never exceeds
	// MaxAnswers − local exacts. A question without conditions has
	// nothing to relax.
	demote := p.merged && in.Superlative != nil
	want := s.maxAnswers - len(ids)
	if demote {
		want = s.maxAnswers
	}
	var names []string
	if in.ConditionCount() == 0 {
		want, demote = 0, false
	} else if want > 0 {
		names = similarityNames(in.AllConditions())
	}
	// The merge demotes an exact answer into the partial pool, which the
	// monolith's pool must hold too: only the exact answers the
	// relaxation admits are demotable. So a merged superlative part
	// takes the pool with its exact answers in and splits them out.
	var pool []sqldb.RowID
	if demote {
		pool = s.candidatePool(v, in, sel.Where, nil, rs)
	} else if want > 0 {
		pool = s.candidatePool(v, in, sel.Where, ids, rs)
	}
	answers = make([]A, 0, len(ids)+want)
	sim := s.sims[v.Schema().Domain]
	exactScore := float64(maxGroupLen(in))
	j, rest, demoted := 0, pool[:0], 0
	for _, id := range ids {
		a := Answer{ID: id, Record: v.Row(id), Exact: true, RankSim: exactScore, DroppedCond: -1}
		var d demotion
		if demote {
			for j < len(pool) && pool[j] < id {
				rest = append(rest, pool[j])
				j++
			}
			if j < len(pool) && pool[j] == id {
				// The merge may find a better extreme elsewhere and
				// demote this answer; score it now, while the row is at
				// hand.
				j++
				demoted++
				d.rankSim, d.dropped = sim.RowRankSim(a.Record, in.Groups)
				if d.dropped >= 0 && d.dropped < len(names) {
					d.similarityUsed = names[d.dropped]
				}
			} else {
				d.dropped = -1
			}
		}
		answers = append(answers, mk(a, d))
	}
	if demote {
		pool = append(rest, pool[j:]...)
		v.Work().AddScored(demoted, in.ConditionCount())
	}
	return partialAnswers(s, answers, v, in, pool, ids, want, p, names, mk), len(ids), extreme, hasExtreme, nil
}

// PlanCacheStats returns four zeros. There is no plan cache: every ask
// validates its statement once, as sql.RunView runs it, and the
// executor reads each conjunction's roles off the statement as it runs. It is kept only
// because bench/trace.go, whose compile surface is frozen, destructures
// its four values; its zero lookup count leaves the traced plan rows
// at 0.
func (s *System) PlanCacheStats() (hits, misses, invalidations int64, size int) {
	return 0, 0, 0, 0
}

// Explain renders the access plan res's question ran, rebuilt from
// res.Interpretation: BuildSelect is deterministic, so the statement
// is the one AskInDomain executed and printed as res.SQL. A
// superlative runs only the WHERE of its statement and takes the
// extreme run, so its plan shows that instead of a sort.
func (s *System) Explain(res *Result) (string, error) {
	if res.SQL == "" {
		return "", fmt.Errorf("core: no SQL was generated for %q", res.Question)
	}
	tbl, err := s.hostedTable(res.Domain)
	if err != nil {
		return "", err
	}
	sel := BuildSelect(tbl.Schema(), res.Interpretation, s.maxAnswers)
	if res.Interpretation.Superlative == nil {
		return sql.Explain(s.db, sel)
	}
	where := *sel
	where.OrderBy, where.Desc, where.Limit = "", false, 0
	plan, err := sql.Explain(s.db, &where)
	if err != nil {
		return "", err
	}
	dir := "ASC"
	if sel.Desc {
		dir = "DESC"
	}
	plan += fmt.Sprintf("  extreme run on %s %s over the matches, no sort (superlative evaluated last)\n", sel.OrderBy, dir)
	if sel.Limit > 0 {
		plan += fmt.Sprintf("  limit %d (answer cutoff)\n", sel.Limit)
	}
	return plan, nil
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
