// Package repro is the root of the CQAds reproduction (Qumsiyeh,
// Pera, Ng — "Generating Exact- and Ranked Partially-Matched Answers
// to Questions in Advertisements", PVLDB 5(3), 2011).
//
// The public API lives in package repro/cqads; the substrates live
// under internal/. The root package holds three micro-benchmarks
// (bench_test.go): the partial-answer pipeline, the N−1 versus N−2
// relaxation depth, and the five rankers. End-to-end numbers over HTTP
// come from the benchmark in bench/ (bash bench/run.sh).
//
// # Execution model
//
// Generated SQL runs on a streaming, plan-first executor rather than
// an eager set evaluator. The pipeline has three stages:
//
//   - A driver, intersected postings and per-row residuals, into one
//     pooled buffer. Every id a statement produces is appended into
//     one pooled, caller-owned buffer (internal/sql/stream.go,
//     idBufs). A conjunction appends the row ids of ONE driving leaf —
//     served by the hash or ordered index (View.AppendEqual/
//     AppendRange) — and filters them in place
//     (View.IntersectMatch, internal/sqldb/iter.go). When the driver
//     is an =, its ids ascend, and every other = on a hashed Type I/II
//     column is answered by its posting: each driving id gallops a
//     forward cursor over the posting (an exponential, then binary
//     search), which reads no row. The remaining conjuncts are per-row
//     residual predicates, checked only on the ids the postings keep;
//     an OR of leaves or its NOT is one any-of residual. Under a range
//     driver, whose ids come in value order, the = leaves stay
//     residuals. A root OR appends every branch and then sorts and
//     deduplicates the buffer; a NOT walks the live slots minus its
//     inner ids (View.AppendLiveExcept). Every read runs in the
//     caller's read view of the table (sqldb.Table.View), so no
//     index-owned posting slice is read outside the table lock. The
//     one allocation left is the answer, an exact-size copy of at most
//     LIMIT ids, so an execution allocates nothing that scales with
//     posting size (sql.TestRunAllocatesOnlyItsAnswer).
//
//   - Planning from shape and schema alone. The paper fixes the
//     evaluation order (Sec. 4.3: Type I conditions first, then Type
//     II, then Type III, superlatives last), not how each condition is
//     evaluated, and core.BuildSelect emits every conjunction in that
//     order, so the executor reads the order off the statement as it
//     reaches each conjunction: a conjunction is driven by its first
//     leaf that an index serves
//     (= on a hashed Type I/II column; = with a number, a range or
//     BETWEEN on an ordered Type III column), else by its first leaf,
//     else by the live rows; under an = driver the other = leaves on
//     hashed columns are intersect leaves; the rest become residuals.
//     A posting or a residual selects exactly the rows its node's scan
//     would, so the answer does not depend on which operand drives. No
//     table statistics, no selectivity estimates, no literal values
//     enter a plan, and no plan is kept: reading the roles costs a
//     schema lookup per leaf, and sql.RunView validates the
//     statement once as it runs it. LIMIT is pushed into the filter when no ORDER BY
//     reorders the stream, so the postings and the residuals stop
//     together, and into every branch of an OR, since the first LIMIT
//     ids of a union lie among each branch's first LIMIT ids; the OR's
//     sort and the final trim still return the same ids.
//     sql.Explain renders the plan the executor runs (driving scan and
//     its access path, intersect postings, pushed residuals), read off
//     the statement by the same functions, with ? for each literal. System.Explain rebuilds an answer's statement
//     from its interpretation with BuildSelect rather than parsing the
//     SQL text it printed, and shows a superlative's extreme run in
//     place of the sort: SQL is output, not input, and no production
//     code parses it.
//
//   - Superlatives without a sort. A superlative is evaluated last,
//     over the rows the other criteria retrieve (Sec. 4.3), and only
//     its extreme run matters: the statement still orders by the
//     superlative, but sql.ExtremeRun runs only the WHERE into
//     the pooled buffer, and
//     sqldb.View.AppendExtremeRun takes the rows at the minimum
//     (maximum) numeric value in one pass over the same view, in
//     RowID order — what sorting the whole match set and reading its
//     leading equal run gave, with no sort — and only the run is
//     copied out. TestAppendExtremeRunMatchesSort and FuzzExtremeRun
//     hold it to SortByColumn.
//
// The eager evaluator survives as test support, sqltest.ExecLegacy,
// and a differential fuzzer (internal/sql/fuzz_test.go, 15 s in CI)
// holds the streaming executor bit-identical to it.
//
// One departure from Sec. 4.5: the paper's Example 7 writes each
// condition as an IN subquery over the same table. Keyed on row
// identity, each subquery selects exactly the rows its condition
// selects, so the flat conjunction core.BuildSelect emits returns the
// same answers, and the AST has no IN node. The SQL parser and the
// eager evaluator, which once read and ran IN, are now test support in
// internal/sql/sqltest.
//
// A second departure from Sec. 4.5: the paper configures a MySQL
// substring index of length 3 on every attribute, but the SQL CQAds
// generates never has a substring predicate — tagging resolves every
// categorical word to a whole domain value first — so no trigram index
// is built and the subset has no LIKE (nor <>, which no question
// produces either; negation is NOT). The dialect is exactly what
// core.BuildSelect emits, and core.TestDialectIsWhatBuildSelectEmits
// keeps the executor from accepting anything more.
//
// # Performance architecture
//
// Above the executor, four mechanisms keep the hot path — Sec. 4.3.1
// relaxation plus Eq. 5 ranking, and the JSON envelope around their
// answers — cheap and safe to drive from many goroutines:
//
//   - Streaming relaxation tallies. A record belongs to the union of
//     the N−1 single-drop results exactly when it satisfies at least
//     n−1 of a conjunction's n conditions (n−2 for depth-2), so the
//     relaxation sweep never forms per-drop-set intersections: each
//     condition streams its matching rows once through the driving
//     scans into a per-row counting tally and rows meeting the
//     threshold are emitted — O(sum of posting sizes) per group
//     regardless of relaxation depth (internal/core/partial.go). The
//     tally arrays, the seen set (an epoch-stamped array, so opening a
//     new ask's set is one increment) and the candidate buffer live in
//     a sync.Pool'd per-ask scratch, so a relaxing ask allocates
//     nothing that scales with the table; TestRelaxAllocBudget pins
//     the per-ask allocation ceiling on a 20 000-ad table.
//
//   - Bounded top-K selection over memoized scoring. Ranked partial
//     answers are selected with a K-bounded heap (K =
//     Config.MaxAnswers, the paper's 30-answer cutoff) rather than
//     sorting the whole candidate pool (internal/topk). Every Eq. 5
//     term is at most 1 (TI_Sim and Feat_Sim are clamped to [0,1]),
//     so no candidate scores above the largest conjunction's N;
//     candidates arrive in ascending RowID and ties break on RowID, so
//     scoring stops as soon as the heap is full and its worst answer
//     scores N — for a superlative, the non-extreme full matches get
//     there within a few hundred candidates
//     (TestPartialAnswersCeilingStop). Each candidate's N drop choices
//     are scored from one pass of per-condition
//     similarity/satisfaction memos (rank.BestRankSim), and each
//     answer's record is a read-only view of the stored row
//     (sqldb.Row: its table, row group and offset; cells are written
//     once and never moved) in one Answers slice: no per-answer
//     allocation, and nothing left on the heap that grows with the
//     rows answered (TestRetainedHeapBudget).
//
//   - An append-style answer envelope. GET /api/ask bodies and
//     scatter parts are written straight from core.Result and
//     core.ScatterPart into a pooled buffer (internal/webui/encode.go),
//     byte for byte what encoding/json writes for webui.APIResult —
//     each row's values under its schema's keys, sorted once per
//     domain with their column indexes, HTML-safe escaping,
//     ES6 float formatting — with no per-answer map and no reflection.
//     A non-finite float is a 500, never an empty 200. The front tier
//     decodes each partition's records as raw JSON and splices those
//     bytes into the merged body, since node and monolith encode a
//     record with the same function. TestEncodeAllocBudget pins the
//     per-body allocation ceiling.
//
//   - Concurrent asks. The per-domain similarity caches are
//     lock-striped (internal/rank) and the classifier is read-only
//     once built (JBBSM.Train fits each class as it trains it), so
//     System.Ask is safe from any number of goroutines. The
//     650-question experiment drivers (internal/experiments) answer
//     on a worker pool (internal/pool) and aggregate in input order,
//     bit-identical to a sequential sweep.
//
// # Mutability and the invalidation contract
//
// The paper's corpus is live — ads are posted and expire continuously
// — so the store is mutable at runtime. System.InsertAd and
// System.DeleteAd mutate a running system while questions are being
// answered; a web deployment exposes the same operations as
// POST /api/ads and DELETE /api/ads/{id} (internal/webui), and
// `cqadsweb -ingest` drives a continuous synthetic feed against a live
// server.
//
// The consistency model has three layers:
//
//   - Storage. sqldb.Table stores its rows column-major, in
//     fixed-capacity row groups (PAX): a Type I or II cell is a 4-byte
//     code into its column's append-only dictionary, where each
//     distinct value is classified once (its numeric reading and hash
//     index key); a Type III cell is its float's 8 bytes, and the rare
//     NULL or string there is a dictionary exception. A cell is written
//     once and never moved, and dictionaries are published through an
//     atomic pointer, so an answer's sqldb.Row reads its cells after
//     the ask's view has closed while later inserts land. The table is
//     internally synchronized (RWMutex).
//     Every mutation is atomic: a row and all of its index postings —
//     hash and ordered — appear or disappear together, so no
//     reader ever observes a half-indexed row. Deletes tombstone the
//     RowID (slots are retired, never reused, and keep their cells)
//     and remove postings in place, preserving each posting list's
//     ascending-RowID order; a posting list that falls below half its
//     capacity is reallocated.
//     Reads run in read views: Table.View takes the read lock once,
//     and every read through the View it passes sees one version of
//     the table. AskInDomain and AskInDomainScatter are wrappers
//     around one function, core's answerIn, which runs every stage
//     from the exact answers to the ranked partials, answer assembly
//     included, in one view per table, so no write lands
//     between an ask's stages and a writer waits for the asks in
//     flight. Table's single-call reads (Len, Get, Row, ...) each open
//     a view of their own and are not snapshots of one another.
//
//   - Derived state. No structure computed from the rows outlives an
//     ask, so there is nothing version-keyed to invalidate: every
//     stage reads the rows afresh in the ask's view. (Sec. 6's
//     de-duplication is not on the ask path; internal/dedup removes
//     near-duplicates from a table a caller then answers over.) The
//     similarity caches never need invalidation: they memoize
//     value-pair similarities keyed on the values themselves, which
//     rows coming or going cannot make wrong.
//
//   - Classifier. Routing state is never touched by ingestion: the
//     classifier is trained on generated questions when the system
//     is built and is read-only from then on, so it needs neither
//     invalidation nor a lock.
//
// # Persistence model
//
// A mutable store that forgets everything on restart is the largest
// correctness hole a live ads corpus can have, so persistence is a
// first-class subsystem (internal/persist), enabled by building the
// system with core.Open and Config.DataDir (cqads.Options.DataDir).
// The design is a classic snapshot + write-ahead log pair:
//
//   - Snapshot. One CRC-trailed binary file (snapshot.cqads) holding,
//     per table, the schema column list, the allocated RowID slot
//     count and every live row — values tagged NULL/string/number.
//     The classifier is not stored: like the TI/WS matrices it is
//     rebuilt from the node's configuration. Tombstoned slots are
//     *not* stored but are implied by the slot count, so retired
//     RowIDs stay retired after recovery and the next insert
//     continues the sequence.
//     Indexes are not serialized: they are rebuilt from the rows on
//     load, which keeps the format small and immune to index-layout
//     changes. Snapshots are replaced atomically (temp file, fsync,
//     rename, directory fsync).
//
//   - WAL. Every InsertAd/DeleteAd on a persistent system holds the
//     ingest lock across the table mutation AND the log append, so
//     the log order is exactly the mutation order; the record
//     (sequence number, kind, domain, RowID, and for inserts the
//     column/value pairs) is framed with a length + CRC header and
//     fsync'd before the call returns. Concurrent writers share one
//     group committer, which applies the queued writes under the
//     ingest lock and logs them with one append and one fsync. A torn
//     final frame, the expected aftermath of a kill, is detected by
//     CRC and truncated at the next open.
//
//   - Recovery. core.Open loads the snapshot into the tables
//     (sqldb.Table.RestoreState) and replays the WAL records whose
//     sequence exceeds the snapshot's — re-running each insert
//     through the same path the live system used and verifying that
//     every replayed insert lands on the RowID the log recorded;
//     divergence fails loudly. A directory with no snapshot
//     gets one immediately, so recovery never depends on rebuilding
//     an identical baseline.
//
//   - Compaction. When the WAL outgrows Config.CompactBytes, a
//     background checkpoint (System.Checkpoint) writes a fresh
//     snapshot and truncates the log; sequence numbers continue
//     across the truncation, and a crash between the snapshot rename
//     and the log truncation is harmless — the stale records are
//     filtered by sequence at the next open. Checkpoints pause
//     ingestion (writers queue on the ingest lock) but never block
//     question answering, which only takes table read locks.
//
// System.Close checkpoints and releases the store; GET /api/status on
// the web UI (and System.Status) reports per-domain corpus versions,
// the logged sequence, the checkpointed sequence and the WAL size.
//
// # Replication model
//
// Reads scale horizontally by shipping the WAL to follower processes
// (internal/replica on the client side, internal/webui's /api/repl
// endpoints on the server side). The design leans entirely on the
// persistence subsystem's invariants: every mutation already has a
// totally-ordered sequence number, the snapshot is a complete state
// transfer, and the framed WAL encoding doubles as the wire format
// (persist.AppendFrame / persist.OpReader — one codec, no second
// serialization to drift).
//
//   - Roles. A PRIMARY is any durable System: it serves its current
//     snapshot (GET /api/repl/snapshot) and its log
//     (GET /api/repl/wal?from=<seq>, long-polled, framed ops with
//     sequence > from). A FOLLOWER is a durable node on its own data
//     directory (core.OpenPeer, fed by replica.Attach; `cqadsweb
//     -replicate-from URL -data DIR`, or a `-replica-set` member): it
//     builds the same deterministic substrate set as the primary —
//     schemas, TI/WS matrices, and a classifier over its own hosted
//     domains — takes its tables from one snapshot transfer when its
//     directory is fresh (refused if the snapshot lacks a domain the
//     follower hosts), and then tails the log from its own cursor,
//     applying each operation through the same replay path crash
//     recovery uses, verifying each insert lands on the RowID the
//     primary logged, and spooling it to its own WAL. There is one
//     follower kind: a read replica is a replica-set peer that runs no
//     election. A restarted follower recovers from its own directory
//     and resumes streaming where its log ends.
//
//   - Consistency. Followers are read-only (InsertAd/DeleteAd return
//     core.ErrReadOnlyReplica) and asynchronously consistent: a read
//     observes a prefix of the primary's mutation order, never a
//     reordering. The apply loop holds the follower's apply lock, but
//     reads ride table-level locks exactly as they do against live
//     ingestion on a primary. Status reports AppliedSeq, the
//     last-observed primary sequence and their difference (LagOps);
//     GET /healthz serves serving/recovering/write-failed cheaply for
//     probes.
//
//   - Catch-up. Duplicate delivery is skipped by sequence; a gap
//     (core.GapError) or an HTTP 410 — the primary compacted past the
//     follower's cursor — triggers an automatic snapshot reset: fetch
//     the new snapshot, restore it IN PLACE (same System pointer, so
//     HTTP handlers keep working), re-baseline the local store with
//     the restored tables, jump the cursor to the snapshot's sequence,
//     resume tailing.
//
//   - Failover. POST /api/repl/promote (System.Promote) flips a
//     follower writable for manual failover: replication stops first,
//     then writes are accepted, so a stale primary's stream can never
//     race a post-promotion write. Automatic failover and quorum
//     writes are internal/failover's: a lease-based election over a
//     replica set (-replica-set, -lease) promotes the freshest
//     follower when the leader's lease lapses, and a write sent with
//     ?ack=quorum confirms only once a majority of the set holds it.
//
// # Sharding model
//
// Writes scale horizontally by splitting the eight ads domains across
// processes (internal/shard). The partitioning unit is the domain:
// tables, snapshot sections and WAL operations are already
// domain-tagged, so a SHARD is simply a System hosting a subset
// (core.Config.Domains; `cqadsweb -domains cars,csjobs`) — it
// populates, indexes, persists (its own DataDir, WAL and fsync
// cadence) and replicates only those domains, and refuses ingest
// addressed elsewhere with the typed core.ErrNotHosted (HTTP 421).
// Its snapshots and WAL carry only hosted domains; a durable shard
// therefore refuses to open a store whose snapshot holds other
// domains (a checkpoint would destroy them). A FOLLOWER may host a
// subset of a wider primary's domains as a partial replica: it
// filters foreign-domain snapshot sections and WAL records on the
// Domain field, its own snapshots hold only its domains, and the
// foreign records its log keeps for gap-free sequence numbers are
// skipped again at recovery.
//
//   - Ownership and routing. The FRONT TIER (shard.Router behind
//     shard.Server; `cqadsweb -shards "cars=http://a,..."`) holds no
//     corpus. It classifies each question exactly once — with the same
//     classifier construction a monolith uses, so the routing decision
//     is the decision a monolith would have made — and forwards to the
//     shard owning the classified domain, proxying the shard's answer
//     bytes verbatim. Ingest fans out by the ad's Domain field;
//     /api/status and /healthz scatter-gather a cluster view with
//     per-shard health.
//
//   - Equivalence. Every per-domain artifact is derived from the
//     domain's canonical identity (its index in schema.DomainNames),
//     never from its position in a shard's subset, and the
//     word-similarity matrix always spans all eight schemas — so a
//     shard's slice of the corpus is byte-identical to the monolith's
//     and the cluster answers bit-identically to a single process.
//     The cross-topology harness (internal/core/shardequiv_test.go,
//     internal/shard/equiv_test.go, both built on
//     internal/shard/shardtest) proves monolith, 8-shard and 2-shard
//     topologies answer the 650-question workload identically at both
//     the core API and the HTTP byte level.
//
//   - Degraded reads. Ownership is static, so a dead shard cannot be
//     routed around: its domains answer an empty-answers envelope
//     carrying the error (HTTP 502 on the single-question endpoint)
//     while every other domain is unaffected, and the cluster health
//     rolls up serving/degraded/down. A question the classifier cannot
//     place is broadcast to every hosted domain and the best
//     single-domain answer wins deterministically.
//
//   - Composition with replication. A shard is a durable System, hence
//     implicitly a replication primary: it ships only its hosted
//     domains (its WAL contains nothing else), so a shard can carry
//     its own follower fleet (`cqadsweb -replicate-from -data` with
//     the shard's -domains) and the two scaling axes — domains across
//     shards, reads across replicas — compose per shard.
//
// # Partitioning and live rebalancing
//
// Domain sharding caps out at eight processes and a hot vertical
// dwarfs the rest, so a second axis splits ONE domain by ad-key hash
// (internal/partition): keys are mixed through splitmix64 and a slice
// h<i>/<P> (P a power of two) owns the keys whose low bits equal i.
// Power-of-two counts give slices an exact algebra — h1/2 splits into
// h1/4 and h3/4, a child is a strict subset of its parent — which is
// what makes an incremental move well-defined.
//
//   - A PARTITION is a shard narrowed further
//     (cqads.Options.Partitions/PartitionIndex; `cqadsweb -domains
//     cars -partition h1/2`): it builds the full deterministic
//     substrate — classifier, similarity matrices, even the domain's
//     complete generated corpus, from which it drops out-of-slice rows
//     as tombstones — so RowIDs, routing and ranking are globally
//     identical, and it admits only ingest whose key hash it owns
//     (typed core.WrongPartitionError / HTTP 421 otherwise). Snapshot
//     serving accepts ?partition=h3/4 to ship just a slice.
//
//   - The shard map grows hash groups (`cars=h0:http://a,h1:http://b`,
//     composing with "|" replica sets per group). The front tier
//     scatters an in-domain ask to every partition of the domain, each
//     partition answers over its slice (AskInDomainScatter, through
//     the same answerIn a monolith ask runs, with the slice filter and
//     an uncapped superlative run), and the router merges the
//     ranked fragments deterministically (score order, RowID
//     tie-break) into bytes identical to a monolith's answer, splicing
//     each answer's record bytes as its partition encoded them; ingest
//     routes by the ad key's hash (unpinned inserts round-robin, since
//     any partition can allocate an id it owns); /api/status rolls up
//     "cluster_latency" by exactly Merging every partition's raw
//     histogram buckets.
//
//   - Live rebalancing (internal/shard/rebalance; POST /api/rebalance
//     on the front tier) moves a slice without dropping a query or a
//     quorum-acked write: a durable follower keeping only the moved
//     slice tails the source's WAL to lag 0 (a snapshot transfer, when
//     it needs one, is slice-filtered); the
//     coordinator then fences JUST the moving slice's writes at the
//     router (queued, never errored), drains in-flight writes, waits
//     for the target to apply the source's final sequence, promotes
//     the target, swaps the router map (source keeps the sibling
//     slice, target takes the moved one), tells the source to retire
//     the moved slice's rows, and lifts the fence. Reads never pause:
//     scatter legs carry the slice they address, so answers are
//     correct from either side of the cutover. The promoted target
//     writes durably to its own directory and restarts as a plain
//     partition (`-domains cars -partition h3/4 -data DIR`). The churn
//     harness (internal/shard/rebalance) proves a move under live
//     ingest and ask traffic stays byte-identical to a never-rebalanced
//     reference, before and after the target restarts.
//
// # Load & latency
//
// Serving a live corpus makes tail latency a correctness-adjacent
// concern, so the repository carries its own measurement and
// mitigation layer (no external metrics or load-test dependency):
//
//   - Histograms. telemetry.Histogram (internal/metrics/telemetry) is
//     a lock-striped, power-of-two-bucketed latency histogram:
//     Record files a nanosecond sample under one of eight stripe
//     mutexes picked by an atomic rotor, Snapshot folds the stripes
//     into an immutable value with p50/p90/p99/p999 quantiles
//     (interpolated within the sample's bucket, so an estimate is
//     never outside it), and Snapshots Merge exactly — integer adds,
//     associative and commutative — for cluster rollups. Every webui
//     endpoint of interest (/api/ask, ingest, the replication
//     long-poll) records its end-to-end service time and
//     GET /api/status reports a "latency" block. Counts are
//     cumulative and reset-free by contract: scrapers difference
//     successive samples, so concurrent scrapers cannot corrupt each
//     other's view.
//
//   - Group-commit ingest. On a durable System, concurrent
//     single-record InsertAd/DeleteAd calls queue onto a committer
//     goroutine that drains whatever accumulated while the previous
//     fsync was in flight and commits the batch as one WAL append +
//     one fsync (internal/core/groupcommit.go). Nothing else changes:
//     log order still equals mutation order (mutation and append
//     happen under the ingest lock in queue order), a caller's ack
//     still means "my write is durable" (quorum acks still wait for
//     the majority), a mid-batch append failure latches the store
//     with nobody acked, and a lone writer commits immediately — the
//     coalescing window is the fsync itself. At 8 concurrent writers
//     the grouped path sustained ~3x the insert throughput of the
//     per-call-fsync path it replaced (CHANGES.md, PR 9).
//
//   - Hedged reads. The front tier learns each shard group's read
//     latency in its own per-group histogram and hedges: a read still
//     outstanding past twice the group's p99 (floored; a fixed
//     conservative delay while cold) launches a backup copy at
//     another member of the replica set, the first 200 wins and the
//     loser is cancelled; a primary that fails outright hedges
//     immediately, so a restarting member costs one extra request
//     instead of the old degrade-to-error window. Writes never hedge
//     (they are not idempotent); hedge volume is visible in the front
//     tier's /api/status ("front": hedges, hedge_wins, per-group
//     latency and the delay currently in force).
//
// # Static guarantees
//
// The invariants above are not just documented — the repository ships
// its own static-analysis suite (internal/analysis, driven by
// cmd/cqadslint) that mechanically enforces them on every build:
//
//   - detorder: no order-sensitive work (floating-point accumulation,
//     unsorted result building, direct output) inside range-over-map
//     in the declared-deterministic packages (core, rank, classify,
//     sql, dedup) — the bit-identical answer contract cannot be
//     broken by Go's randomized map iteration.
//
//   - wallclock: no time.Now/Since/Until or math/rand in those same
//     packages; answers may not depend on when they are computed.
//     Lease, heartbeat and jitter code in internal/failover is exempt
//     by design.
//
//   - locksafe: struct fields annotated `cqads:guarded-by <mu>`
//     (sqldb.Table, persist.Store, failover.Agent, core's persister)
//     may only be touched under the named mutex or from a method
//     annotated `cqads:requires-lock <mu>`, or read under a read view
//     (a sqldb.View method, or a literal passed to Table.View), where
//     no Table method may be called; Lock/Unlock pairing and
//     RLock-vs-write misuse are checked in the same pass.
//
//   - typederr: the webui boundary must route every error through
//     jsonError's errors.Is status mapping (no http.Error, no
//     boundary-minted untyped errors), and exported core functions
//     may not respell an already-typed condition (ErrNotHosted,
//     ErrOverloaded, …) as a bare fmt.Errorf.
//
//   - fsyncorder: in core ingest paths a persist.Store Append must be
//     dominated by the ingest-lock acquisition (log order equals
//     mutation order), and in internal/persist the
//     snapshot-before-truncate and write/truncate-then-fsync
//     checkpoint orderings may not be reordered.
//
// Two rules need the whole module rather than one package, so they are
// a test and a CI step instead of analyzers:
//
//   - Production code is what production calls. prodref_test.go fails
//     on any function or method, outside cmd/, examples/ and the
//     test-support packages, that no non-test file names.
//
//   - Numbers are the same on every CPU. gc may fuse x*y + z into one
//     multiply-add on arm64, ppc64le, s390x and riscv64 (never on
//     amd64), which skips a rounding. The generated corpus and
//     questions, the classifier and the rankers therefore round each
//     such product with an explicit float64(...) conversion, and CI's
//     lint job fails when `GOARCH=arm64 go build -gcflags=-S` lists a
//     fused instruction outside internal/metrics/telemetry.
//
// Deliberate exceptions carry an inline
// `//lint:cqads-ignore <analyzer> <reason>` directive; the reason is
// mandatory, unknown analyzer names are errors, and a directive that
// no longer suppresses anything fails the build, so suppressions
// cannot rot. Run `make lint` or `go run ./cmd/cqadslint ./...`, or
// hook it into go vet with `go vet -vettool=$(which cqadslint) ./...`.
package repro
