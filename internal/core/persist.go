package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/partition"
	"repro/internal/persist"
	"repro/internal/sqldb"
)

// This file wires the durability subsystem (internal/persist) into the
// System: recovery at Open, write-ahead logging of every ingest
// operation, checkpointing (snapshot + WAL truncation), and background
// compaction.
//
// The ordering contract is the whole trick. For a persistent system,
// every mutation holds persister.mu across BOTH the table change and
// the WAL append, so the log order is exactly the mutation order:
// inserts appear with strictly increasing RowIDs per table and every
// delete follows the insert it tombstones. Recovery can therefore
// replay the tail with plain Insert/Delete calls and verify that each
// insert is assigned the RowID the log recorded — any divergence is
// corruption, reported loudly rather than served silently. Question
// answering never touches persister.mu: readers run concurrently with
// logging, checkpointing, and compaction.

// ErrDurabilityLost marks every error caused by a failed WAL append:
// both the failing call's own "mutated but not logged" report and the
// latched refusals that follow. Callers (the web layer in particular)
// can distinguish this server-side durability fault — a 5xx, retry
// against another node — from a bad request.
var ErrDurabilityLost = errors.New("durability lost (WAL append failed); restart to recover from the last durable state")

// persister owns a System's durable store.
type persister struct {
	// mu serializes ingestion (table mutation + WAL append as one
	// critical section) and checkpointing. Ask paths never take it.
	mu           sync.Mutex
	store        *persist.Store
	compactBytes int64
	// gc is the group-commit scheduler every single write goes
	// through. Set once in Open before the system is published,
	// read-only after.
	gc *groupCommitter
	// maxWALBytes is the ingest admission threshold on log backlog
	// (Config.MaxWALBytes resolved; 0 = disabled).
	maxWALBytes int64
	closed      bool // cqads:guarded-by mu
	// failed latches after a WAL append error. The failing call's
	// table mutation is already in memory but not in the log, so the
	// two have diverged: any further logged mutation would replay onto
	// a different RowID sequence at recovery and make the directory
	// unrecoverable. Once failed, ingestion and checkpointing refuse
	// BEFORE touching the tables — the in-memory image stays exactly
	// "last durable state plus the operations whose callers got
	// errors", reads keep working, and a restart recovers cleanly.
	// Atomic so Status can report it without queuing behind a
	// checkpoint; it is only set while p.mu is held.
	failed atomic.Bool
	// compacting gates the single in-flight background compaction;
	// wg lets Close wait for it.
	compacting atomic.Bool
	wg         sync.WaitGroup
	// compactErr is the last background compaction's failure message
	// ("" after a success): background checkpoints have no caller to
	// return to, so the error is surfaced through Status instead of
	// being dropped.
	compactErr atomic.Value // string
	// lastCheckpoint is the wall time of the latest checkpoint
	// (UnixNano), 0 before the first.
	lastCheckpoint atomic.Int64
}

// ingestable reports whether a mutation may proceed. Called with
// p.mu held, before any table is touched, so a closed or failed
// persister stops divergence at the door.
//
// cqads:requires-lock mu
func (p *persister) ingestable() error {
	if p.closed {
		return fmt.Errorf("core: system is closed")
	}
	if p.failed.Load() {
		return fmt.Errorf("core: %w", ErrDurabilityLost)
	}
	return nil
}

// Open builds a System like New and, when cfg.DataDir is set, makes it
// durable: an existing snapshot is restored into cfg.DB's tables
// (replacing their contents wholesale, tombstoned RowID slots
// included), the WAL tail is replayed, and every subsequent
// InsertAd/DeleteAd is write-ahead logged. The classifier is not
// stored: cfg.Classifier routes questions, as it does for New. A
// directory that has never been checkpointed gets an initial snapshot
// of the freshly built store, so recovery never depends on the caller
// rebuilding an identical baseline.
func Open(cfg Config) (*System, error) {
	if cfg.DataDir == "" {
		return New(cfg)
	}
	if cfg.DB == nil {
		return nil, fmt.Errorf("core: Config.DB is required")
	}
	st, err := persist.Open(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	if err := guardShardStore(cfg, st); err != nil {
		st.Close()
		return nil, err
	}
	hadSnapshot := false
	if snap := st.LoadedSnapshot(); snap != nil {
		hadSnapshot = true
		if err := restoreSnapshot(cfg, snap); err != nil {
			st.Close()
			return nil, err
		}
	}
	sys, err := New(cfg)
	if err != nil {
		st.Close()
		return nil, err
	}
	// Replay the WAL tail through the same path live ingestion uses
	// (insertAdLocked / deleteAdLocked), so live and replayed
	// mutations cannot diverge. The persister is not attached yet, so
	// nothing is re-logged.
	for _, op := range st.Tail() {
		if err := sys.replayOp(op); err != nil {
			st.Close()
			return nil, err
		}
	}
	st.ReleaseRecoveryState()
	// The committer holds no goroutine yet: one is spawned by the first
	// queued write and exits when the queue drains, so an idle or
	// abandoned System holds nothing.
	p := &persister{store: st, compactBytes: cfg.CompactBytes, maxWALBytes: cfg.MaxWALBytes, gc: &groupCommitter{}}
	if p.compactBytes == 0 {
		p.compactBytes = DefaultCompactBytes
	}
	switch {
	case p.maxWALBytes == 0:
		p.maxWALBytes = DefaultMaxWALBytes
	case p.maxWALBytes < 0:
		p.maxWALBytes = 0 // explicit opt-out
	}
	sys.persist = p
	if !hadSnapshot {
		// First run (or a lost snapshot): make the current store the
		// durable baseline before serving anything.
		p.mu.Lock()
		err := sys.checkpointLocked()
		p.mu.Unlock()
		if err != nil {
			st.Close()
			return nil, err
		}
	}
	return sys, nil
}

// guardShardStore refuses to attach a System to a data directory
// whose domain set differs from the System's hosted set, in either
// direction. Every checkpoint exports exactly the hosted tables and
// truncates the WAL, so opening a WIDER store would destroy the
// unhosted domains' durable data, and opening a NARROWER store (a
// shard's directory re-opened unsharded or with extra domains) would
// persist freshly seed-fabricated tables next to the real cluster
// state — both silently, at the first compaction or graceful
// shutdown. The snapshot names the directory's domain set, since
// every checkpoint writes a section per hosted domain, empty or not.
// WAL records are not consulted: a partial follower's log holds its
// wider primary's operations for other domains, which replay skips.
// A directory with no snapshot yet (first run) carries no state to
// protect and always passes.
func guardShardStore(cfg Config, st *persist.Store) error {
	hosted := make(map[string]bool)
	if len(cfg.Domains) > 0 {
		for _, d := range cfg.Domains {
			hosted[d] = true
		}
	} else {
		for _, d := range cfg.DB.Domains() {
			hosted[d] = true
		}
	}
	snap := st.LoadedSnapshot()
	if snap == nil {
		return nil
	}
	inStore := make(map[string]bool, len(snap.Tables))
	foreign := make(map[string]bool)
	for _, td := range snap.Tables {
		inStore[td.Domain] = true
		if !hosted[td.Domain] {
			foreign[td.Domain] = true
		}
	}
	if len(foreign) > 0 {
		return fmt.Errorf("core: data directory %s holds domains this shard does not host (%s); a checkpoint would destroy them — open with a matching Config.Domains or a fresh directory",
			st.Dir(), strings.Join(sortedKeys(foreign), ", "))
	}
	missing := make(map[string]bool)
	for d := range hosted {
		if !inStore[d] {
			missing[d] = true
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("core: data directory %s belongs to a shard that does not host %s; a checkpoint would persist seed-fabricated tables for them — open with the directory's own Config.Domains or a fresh directory",
			st.Dir(), strings.Join(sortedKeys(missing), ", "))
	}
	return nil
}

// sortedKeys renders a set deterministically for error messages.
func sortedKeys(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for d := range set {
		names = append(names, d)
	}
	sort.Strings(names)
	return names
}

// restoreSnapshot replaces the contents of cfg.DB's tables with the
// snapshot image. When cfg.Domains restricts the hosted set (shard
// mode), sections for domains the database knows but the shard does
// not host are skipped — that is how a partial follower takes a wider
// primary's snapshot transfer; sections for domains the database has
// never heard of still fail loudly as corruption.
func restoreSnapshot(cfg Config, snap *persist.Snapshot) error {
	hosted := make(map[string]bool, len(cfg.Domains))
	for _, d := range cfg.Domains {
		hosted[d] = true
	}
	slice := partition.Whole()
	if cfg.Partitions > 1 {
		slice = partition.Slice{Index: cfg.PartitionIndex, Count: cfg.Partitions}
	}
	for _, td := range snap.Tables {
		tbl, ok := cfg.DB.TableForDomain(td.Domain)
		if !ok {
			return fmt.Errorf("core: snapshot has domain %q but the database does not", td.Domain)
		}
		if len(hosted) > 0 && !hosted[td.Domain] {
			continue // known domain, hosted elsewhere: filtered
		}
		if !slice.IsWhole() {
			// Partition filtering: keep only rows whose key hashes into
			// the hosted slice. The slot count is preserved, so RowIDs
			// stay stable — the dropped rows' slots become tombstones,
			// exactly as a source-side filtered export renders them.
			rows := make([]sqldb.Record, 0, len(td.Rows))
			for _, r := range td.Rows {
				if slice.ContainsKey(uint64(r.ID)) {
					rows = append(rows, r)
				}
			}
			td.Rows = rows
		}
		attrs := tbl.Schema().Attrs
		if len(td.Columns) != len(attrs) {
			return fmt.Errorf("core: snapshot table %q has %d columns, schema has %d", td.Domain, len(td.Columns), len(attrs))
		}
		for i, a := range attrs {
			if td.Columns[i] != a.Name {
				return fmt.Errorf("core: snapshot table %q column %d is %q, schema says %q", td.Domain, i, td.Columns[i], a.Name)
			}
		}
		if err := tbl.RestoreState(td.Slots, td.Rows); err != nil {
			return fmt.Errorf("core: restoring %q: %w", td.Domain, err)
		}
	}
	return nil
}

// replayOp applies one WAL record during recovery through the live
// ingest path (no logging — the persister is not attached yet), and
// verifies each insert lands on the RowID the log recorded.
func (s *System) replayOp(op persist.Op) error {
	if s.sharded && !s.hosted[op.Domain] {
		if _, ok := s.db.TableForDomain(op.Domain); ok {
			// WAL filtering on the Domain field: a partial follower
			// applies (and recovers) only its own operations from a
			// wider primary's log. Domains the database has never
			// heard of fall through and fail loudly as corruption,
			// same as on an unsharded system.
			return nil
		}
	}
	if s.partitioned && !s.ownsKey(op.ID) {
		// Partition filtering on the key hash: a replica of a wider (or
		// sibling) partition's log applies only the operations its own
		// slice owns. Skipped operations still advance the replay
		// cursor, so the stream stays gap-free.
		return nil
	}
	switch op.Kind {
	case persist.OpInsert:
		values := make(map[string]sqldb.Value, len(op.Columns))
		for i, col := range op.Columns {
			values[col] = op.Values[i]
		}
		// Replay lands each insert at exactly the logged id rather than
		// relying on dense self-assignment: a partitioned table is
		// sparse (only in-slice slots are allocated), and any table may
		// hold a pinned insert's never-live slots.
		id, err := s.insertAdLocked(op.Domain, values, op.ID)
		if err != nil {
			return fmt.Errorf("core: replaying WAL op %d: %w", op.Seq, err)
		}
		if id != op.ID {
			return fmt.Errorf("core: WAL op %d inserted as row %d, log says %d — log and store have diverged", op.Seq, id, op.ID)
		}
	case persist.OpDelete:
		if err := s.deleteAdLocked(op.Domain, op.ID); err != nil {
			return fmt.Errorf("core: replaying WAL op %d: %w", op.Seq, err)
		}
	default:
		return fmt.Errorf("core: WAL op %d has unknown kind %d", op.Seq, op.Kind)
	}
	return nil
}

// insertOpFor renders an insert as a WAL operation. Columns are sorted
// so the encoding is deterministic regardless of map iteration.
func insertOpFor(domain string, id sqldb.RowID, values map[string]sqldb.Value) persist.Op {
	cols := make([]string, 0, len(values))
	for c := range values {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	vals := make([]sqldb.Value, len(cols))
	for i, c := range cols {
		vals[i] = values[c]
	}
	return persist.Op{Kind: persist.OpInsert, Domain: domain, ID: id, Columns: cols, Values: vals}
}

// maybeCompact starts a background checkpoint when the WAL has
// outgrown the configured threshold. Called with p.mu held; the
// compaction itself runs on its own goroutine and re-acquires the
// lock, so ingestion is only paused for the export, not queued behind
// the trigger.
func (s *System) maybeCompact() {
	p := s.persist
	if p.compactBytes <= 0 || p.store.WALSize() < p.compactBytes {
		return
	}
	if !p.compacting.CompareAndSwap(false, true) {
		return // one compaction in flight is enough
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.compacting.Store(false)
		// Background checkpoints have no caller: record the outcome in
		// Status so a persistently failing compaction (full disk,
		// revoked permissions) is visible instead of silently retried
		// with a full corpus export per ingest. A Close that raced us
		// reports the store closed here, which the exiting process
		// won't read — harmless.
		if err := s.Checkpoint(); err != nil {
			p.compactErr.Store(err.Error())
		} else {
			p.compactErr.Store("")
		}
	}()
}

// Checkpoint writes a full snapshot of the hosted tables and
// truncates the WAL. Ingestion is paused for the duration; question
// answering is not. A non-persistent system reports an error.
func (s *System) Checkpoint() error {
	p := s.persist
	if p == nil {
		return fmt.Errorf("core: persistence is not enabled (build the system with Open and Config.DataDir)")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("core: system is closed")
	}
	if p.failed.Load() {
		// The in-memory image includes mutations whose callers were
		// told they failed; snapshotting it would resurrect them.
		return fmt.Errorf("core: %w", ErrDurabilityLost)
	}
	return s.checkpointLocked()
}

// checkpointLocked exports every hosted table under persister.mu — no
// ingest can land mid-export, so the image is consistent with the WAL
// sequence it covers.
func (s *System) checkpointLocked() error {
	p := s.persist
	if err := p.store.WriteCheckpoint(s.exportLocked()); err != nil {
		return err
	}
	p.lastCheckpoint.Store(time.Now().UnixNano()) //lint:cqads-ignore wallclock checkpoint age is operational metadata, never part of an answer
	return nil
}

// exportLocked renders the hosted tables as a snapshot image with no
// sequence stamped. Called with persister.mu held.
func (s *System) exportLocked() *persist.Snapshot {
	snap := &persist.Snapshot{}
	for _, domain := range s.domains {
		tbl, _ := s.db.TableForDomain(domain)
		slots, rows := tbl.ExportState()
		attrs := tbl.Schema().Attrs
		cols := make([]string, len(attrs))
		for i, a := range attrs {
			cols[i] = a.Name
		}
		snap.Tables = append(snap.Tables, persist.TableData{
			Domain:  domain,
			Table:   tbl.Name(),
			Columns: cols,
			Slots:   slots,
			Rows:    rows,
		})
	}
	return snap
}

// Close checkpoints (when persistence is enabled) and releases the
// store. Ingestion after Close fails; Ask keeps working on the
// in-memory image. Close is idempotent and a no-op for non-persistent
// systems.
func (s *System) Close() error {
	p := s.persist
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	var ckptErr error
	if !p.failed.Load() {
		// No final checkpoint after a WAL failure: the next Open must
		// recover from the last durable state, not from an image
		// containing mutations whose callers saw errors.
		ckptErr = s.checkpointLocked()
	}
	p.closed = true
	p.mu.Unlock()
	// Stop the group committer after closed is set: its final drain
	// fails every still-queued write at the ingestable gate ("system
	// is closed") without touching a table, so nothing can land after
	// the checkpoint above.
	s.shutdownGroupCommits(p.gc)
	// Wait out an in-flight background compaction (it will observe
	// closed and fail harmlessly — our own checkpoint above already
	// captured everything).
	p.wg.Wait()
	return errors.Join(ckptErr, p.store.Close())
}

// DomainStatus is one domain's live-corpus state.
type DomainStatus struct {
	Domain string
	// Live is the number of live ads; Slots the allocated RowID range
	// including tombstones.
	Live  int
	Slots int
	// Version is the table's mutation counter.
	Version uint64
}

// PersistenceStatus reports the durability subsystem's state.
type PersistenceStatus struct {
	// Enabled is false for systems built without a DataDir; the other
	// fields are zero then.
	Enabled bool
	// Dir is the data directory.
	Dir string
	// Seq is the last logged operation; CheckpointSeq the operation
	// the on-disk snapshot covers. Their difference is the replay
	// distance after a crash.
	Seq           uint64
	CheckpointSeq uint64
	// WALBytes is the current log size.
	WALBytes int64
	// LastCheckpoint is the wall time of the latest checkpoint; zero
	// before the first in this process.
	LastCheckpoint time.Time
	// Failed reports a latched WAL write failure: the system still
	// answers questions but refuses ingestion until restarted.
	Failed bool
	// LastCompactError is the most recent background compaction
	// failure, empty after a success — background checkpoints have no
	// caller to return an error to, so it surfaces here.
	LastCompactError string
}

// DefaultMaxWALBytes is the default ingest admission threshold on WAL
// backlog when Config.MaxWALBytes is 0: generous enough that only a
// wedged or badly outpaced compactor trips it.
const DefaultMaxWALBytes = 64 << 20

// Status is the live-system report served by GET /api/status.
type Status struct {
	Domains     []DomainStatus
	Persistence PersistenceStatus
	Replication ReplicationStatus
	Admission   AdmissionStatus
}

// Status reports per-domain corpus versions, the checkpoint/WAL state
// for persistent systems, and the replication role and cursors. Safe
// to call concurrently with everything else.
func (s *System) Status() Status {
	var st Status
	st.Replication = s.replicationStatus()
	st.Admission = s.admissionStatus()
	for _, domain := range s.domains {
		tbl, _ := s.db.TableForDomain(domain)
		st.Domains = append(st.Domains, DomainStatus{
			Domain:  domain,
			Live:    tbl.Len(),
			Slots:   tbl.Slots(),
			Version: tbl.Version(),
		})
	}
	if p := s.persist; p != nil {
		st.Persistence = PersistenceStatus{
			Enabled:       true,
			Dir:           p.store.Dir(),
			Seq:           p.store.Seq(),
			CheckpointSeq: p.store.CheckpointSeq(),
			WALBytes:      p.store.WALSize(),
			Failed:        p.failed.Load(),
		}
		if ns := p.lastCheckpoint.Load(); ns != 0 {
			st.Persistence.LastCheckpoint = time.Unix(0, ns)
		}
		if msg, ok := p.compactErr.Load().(string); ok {
			st.Persistence.LastCompactError = msg
		}
	}
	return st
}
