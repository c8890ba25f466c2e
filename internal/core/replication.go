package core

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/persist"
)

// This file is the core half of WAL-shipping replication. A PRIMARY is
// any durable System (Open with Config.DataDir): its snapshot file is
// the state transfer for a follower that cannot stream from its cursor
// and its WAL is the replication stream, exposed through the Repl*
// accessors that the webui endpoints serve. A FOLLOWER is a durable
// System built by OpenPeer on its own data directory: it applies the
// primary's operations in sequence order through the same replay path
// recovery uses (classifier training included), spools each one into
// its own WAL, serves reads the whole time, and rejects direct writes
// with ErrReadOnlyReplica until it is promoted. A restarted follower
// resumes from its own cursor. The HTTP client that feeds ApplyOps
// lives in internal/replica.

// ErrReadOnlyReplica is returned by InsertAd/DeleteAd on a follower:
// replicas apply the primary's log and accept no direct writes, or the
// two would assign conflicting RowIDs.
// Promote flips the follower writable for manual failover.
var ErrReadOnlyReplica = errors.New("core: read-only replica: writes go to the primary (or Promote this follower)")

// errNotWritable is what writable() returns on an unpromoted replica:
// it matches BOTH ErrReadOnlyReplica (the pre-failover contract) and
// ErrNotLeader (so leader-aware clients re-resolve and retry at the
// current leader).
var errNotWritable = fmt.Errorf("%w; %w", ErrReadOnlyReplica, ErrNotLeader)

// ErrNotPrimary is returned by the Repl* accessors on systems that
// cannot serve a replication stream — only a durable System (Open with
// Config.DataDir) has the snapshot + WAL pair to ship.
var ErrNotPrimary = errors.New("core: replication source requires a durable system (Open with Config.DataDir)")

// GapError reports a hole in a shipped operation stream: the follower
// had applied through Applied and was handed an operation with
// sequence Got > Applied+1. The stream cannot be applied out of order,
// so the caller must reset from a fresh snapshot.
type GapError struct {
	Applied, Got uint64
}

func (e *GapError) Error() string {
	return fmt.Sprintf("core: replication gap: applied through seq %d, next shipped op is %d", e.Applied, e.Got)
}

// followerState is the replica-side counterpart of persister: it owns
// the apply lock (the follower's ingest lock) and the replication
// cursor.
type followerState struct {
	// mu serializes ApplyOps, ResetToSnapshot and Promote against one
	// another. Ask paths never take it: reads stay on table-level
	// locks, exactly as they do against live ingestion on a primary.
	mu sync.Mutex
	// cfg is retained for snapshot resets: ResetToSnapshot restores a
	// new snapshot into the same DB tables and classifier, so the
	// System pointer (and everything holding it, like a webui.Server)
	// survives a primary compaction that forces a transfer.
	cfg Config
	// applied is the sequence number of the last applied operation.
	applied atomic.Uint64
	// appliedEpoch is the leadership term of the last applied
	// operation — the follower's half of log matching: presented to
	// the leader with the poll cursor so a diverged log (same
	// sequence numbers written under a fenced term) is detected
	// instead of skipped as duplicates.
	appliedEpoch atomic.Uint64
	// primarySeq is the primary's last observed sequence, reported by
	// the shipping layer (NotePrimarySeq); with applied it gives the
	// lag.
	primarySeq atomic.Uint64
	// promoted flips the follower writable (manual failover). Set
	// under mu so an in-flight ApplyOps batch finishes first.
	promoted atomic.Bool
	// resetting is true while ResetToSnapshot replaces the
	// tables; Health reports the window as "recovering" so routers
	// steer reads elsewhere.
	resetting atomic.Bool
}

// OpenPeer builds a follower: a durable System recovered from its own
// data directory (exactly like Open) that starts read-only. It is the
// one follower kind — every node of a `-replica-set`, every read
// replica and every rebalance target is one. A peer spools every
// applied operation to its local WAL (Store.AppendApplied), so it
// resumes from its own cursor after a restart, and whichever peer wins
// an election already holds a log identical to the stream it
// acknowledged and can serve it onward as the new leader; unlike a
// plain primary it can be demoted back to follower when it loses a
// term. cfg.DataDir is required. cfg supplies the same deterministic
// substrate set as the primary (schemas, TI/WS matrices, classifier);
// a snapshot transfer replaces the table contents and classifier state
// wholesale — the shipping layer takes one before a fresh directory
// (cursor 0) streams, so the guard below runs and the tables are the
// primary's, not the follower's own seed.
func OpenPeer(cfg Config) (*System, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("core: OpenPeer requires Config.DataDir (peers are durable)")
	}
	sys, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	st := sys.persist.store
	f := &followerState{cfg: cfg}
	f.applied.Store(st.Seq())
	if epoch, ok := st.EpochAt(st.Seq()); ok {
		f.appliedEpoch.Store(epoch)
	}
	f.primarySeq.Store(st.Seq())
	sys.follower = f
	return sys, nil
}

// guardFollowerSnapshot requires the primary's snapshot to cover
// every domain this follower hosts: a hosted domain absent from the
// transfer would keep its seeded table and silently answer
// with data the cluster never ingested, while still reporting role
// "follower". The snapshot may be WIDER than the hosted set — that is
// a partial follower, and restoreSnapshot/replayOp filter the rest.
func guardFollowerSnapshot(cfg Config, snap *persist.Snapshot) error {
	hosted := cfg.Domains
	if len(hosted) == 0 {
		hosted = cfg.DB.Domains()
	}
	covered := make(map[string]bool, len(snap.Tables))
	for _, td := range snap.Tables {
		covered[td.Domain] = true
	}
	var missing []string
	for _, d := range hosted {
		if !covered[d] {
			missing = append(missing, d)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("core: the primary's snapshot does not cover hosted domain(s) %s — the follower must be built with (a subset of) the primary's Config.Domains",
			strings.Join(missing, ", "))
	}
	return nil
}

// ApplyOps applies a contiguous run of shipped operations in sequence
// order under the apply lock, so the batch is serialized against
// snapshot resets and promotion (reads take only table-level locks and
// keep flowing), and spools them to the local WAL. Operations at or
// below the applied cursor are skipped — the shipping layer may
// legitimately re-deliver after a re-poll — and a sequence above
// cursor+1 returns a *GapError, which the caller resolves by resetting
// from a fresh snapshot. Each insert goes through the same replay path
// crash recovery uses (classifier training included) and is verified
// to land on the RowID the primary logged, so a diverged replica fails
// loudly instead of serving silently wrong answers. Operations outside
// a partial follower's domains or slice are spooled too, so its log
// stays gap-free; replay skips them, here and at recovery.
func (s *System) ApplyOps(ops []persist.Op) error {
	f := s.follower
	if f == nil {
		return fmt.Errorf("core: ApplyOps on a non-follower system")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted.Load() {
		return fmt.Errorf("core: follower was promoted; no longer applying the primary's stream")
	}
	// The apply is a memory mutation plus a local WAL spool,
	// serialized against checkpoints exactly like primary ingest (lock
	// order is always f.mu then p.mu).
	p := s.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.ingestable(); err != nil {
		return err
	}
	var spooled []persist.Op
	for _, op := range ops {
		applied := f.applied.Load()
		if op.Seq <= applied {
			continue // duplicate delivery after a re-poll
		}
		if op.Seq != applied+1 {
			if err := s.spoolAppliedLocked(spooled); err != nil {
				return err
			}
			return &GapError{Applied: applied, Got: op.Seq}
		}
		if op.Epoch < f.appliedEpoch.Load() {
			// A valid log never decreases epochs; this stream is from a
			// deposed leader that slipped past the transport-level fence.
			if err := s.spoolAppliedLocked(spooled); err != nil {
				return err
			}
			return fmt.Errorf("core: shipped op %d carries fenced epoch %d (applied epoch is %d): %w",
				op.Seq, op.Epoch, f.appliedEpoch.Load(), ErrNotLeader)
		}
		if err := s.replayOp(op); err != nil {
			if serr := s.spoolAppliedLocked(spooled); serr != nil {
				return serr
			}
			return err
		}
		spooled = append(spooled, op)
		f.applied.Store(op.Seq)
		f.appliedEpoch.Store(op.Epoch)
	}
	if err := s.spoolAppliedLocked(spooled); err != nil {
		return err
	}
	s.maybeCompact()
	return nil
}

// spoolAppliedLocked appends memory-applied shipped operations to the
// local WAL (no-op with no ops). Called with f.mu and p.mu held. A
// spool failure latches the durability fault exactly like a failed
// primary append: memory is ahead of the log, so further ingestion or
// application is refused until restart.
func (s *System) spoolAppliedLocked(ops []persist.Op) error {
	if len(ops) == 0 {
		return nil
	}
	p := s.persist
	if err := p.store.AppendApplied(ops); err != nil { //lint:cqads-ignore fsyncorder ApplyOps holds f.mu then p.mu for the whole batch; re-locking here would deadlock
		p.failed.Store(true)
		return fmt.Errorf("core: ops %d-%d applied but not spooled (%v): %w",
			ops[0].Seq, ops[len(ops)-1].Seq, err, ErrDurabilityLost)
	}
	return nil
}

// ResetToSnapshot resets a follower in place: the tables and
// classifier state are replaced wholesale by the new snapshot, the
// local store is re-baselined to the result and the applied cursor
// jumps to the snapshot's sequence. The shipping layer calls this when
// it cannot stream from the follower's cursor: the primary has
// compacted past it, or log matching found it diverged under a fenced
// term (the local WAL suffix is discarded). The new baseline is
// exported from the restored tables, not copied from the transfer, so
// a partial follower's directory holds only its own domains and slice.
// Reads keep working throughout; Health reports "recovering" for the
// duration so load balancers can steer around the window in which
// tables are swapped one by one. A failure once restoring has begun
// latches the durability fault: memory no longer matches the log, and
// a restart recovers from the old baseline.
func (s *System) ResetToSnapshot(snap *persist.Snapshot) error {
	f := s.follower
	if f == nil {
		return fmt.Errorf("core: ResetToSnapshot on a non-follower system")
	}
	if snap == nil {
		return fmt.Errorf("core: ResetToSnapshot requires a snapshot")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted.Load() {
		return fmt.Errorf("core: follower was promoted; refusing to reset from the primary")
	}
	if err := guardFollowerSnapshot(f.cfg, snap); err != nil {
		return err
	}
	f.resetting.Store(true)
	defer f.resetting.Store(false)
	p := s.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.ingestable(); err != nil {
		return err
	}
	err := restoreSnapshot(f.cfg, snap)
	var local *persist.Snapshot
	if err == nil {
		local, err = s.exportLocked()
	}
	if err == nil {
		local.Seq, local.Epoch = snap.Seq, snap.Epoch
		err = p.store.ResetTo(local)
	}
	if err != nil {
		p.failed.Store(true)
		return fmt.Errorf("core: resetting to the snapshot at seq %d (%v): %w", snap.Seq, err, ErrDurabilityLost)
	}
	f.applied.Store(snap.Seq)
	f.appliedEpoch.Store(snap.Epoch)
	if snap.Seq > f.primarySeq.Load() {
		f.primarySeq.Store(snap.Seq)
	}
	return nil
}

// Promote flips a follower writable — the failover path, manual or
// automatic, and a rebalance target's cutover. After Promote,
// InsertAd/DeleteAd succeed, logged to the follower's own WAL, and
// ApplyOps/ResetToSnapshot refuse, so a stale primary coming back
// cannot overwrite writes taken after the flip. Promote is idempotent
// — on an already-writable system (a primary, a promoted follower, a
// standalone) it is a no-op returning nil, so a failover controller
// and an operator can race safely.
func (s *System) Promote() error {
	f := s.follower
	if f == nil {
		return nil // already writable: primary or standalone
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.promoted.Store(true)
	return nil
}

// PromoteTo promotes under a new leadership term: the epoch fence is
// raised to epoch and every subsequent write is stamped with it. This
// is what an election winner calls — the new term on its appends is
// what lets every other node detect and fence the old leader's late
// frames.
func (s *System) PromoteTo(epoch uint64) error {
	s.NoteEpoch(epoch)
	return s.Promote()
}

// Demote flips a replica-set peer back to read-only follower under
// the given (newer) term — the losing side of an election, called
// when a deposed leader learns of a higher epoch. Writes taken after
// the new leader's term began are NOT discarded here; they sit in the
// local log until the tail loop's log matching detects the divergence
// and resets from the new leader (ResetToSnapshot), which is what
// finally drops them. Demote requires a peer (OpenPeer); a plain
// primary has no follower machinery to fall back to.
func (s *System) Demote(epoch uint64) error {
	f := s.follower
	if f == nil {
		return fmt.Errorf("core: Demote requires a replica-set peer (OpenPeer)")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Writes taken while leading advanced the store past the apply
	// cursor; resync the cursor so the tail loop resumes from the true
	// local position (and its log matching can judge it).
	st := s.persist.store
	f.applied.Store(st.Seq())
	if e, ok := st.EpochAt(st.Seq()); ok {
		f.appliedEpoch.Store(e)
	}
	f.promoted.Store(false)
	s.NoteEpoch(epoch)
	return nil
}

// NoteEpoch raises this node's leadership-term fence (monotonic;
// lower values are ignored). The fence lives in the store — it stamps
// subsequent appends and survives restarts; an in-memory system has
// none.
func (s *System) NoteEpoch(epoch uint64) {
	if p := s.persist; p != nil {
		p.store.SetEpoch(epoch)
	}
}

// Epoch returns the node's current leadership-term fence.
func (s *System) Epoch() uint64 {
	if p := s.persist; p != nil {
		return p.store.Epoch()
	}
	return 0
}

// AppliedEpoch returns the term of the last applied (or locally
// logged) operation — the freshness half of an election vote and the
// epoch a follower presents for log matching.
func (s *System) AppliedEpoch() uint64 {
	if f := s.follower; f != nil {
		return f.appliedEpoch.Load()
	}
	if p := s.persist; p != nil {
		if e, ok := p.store.EpochAt(p.store.Seq()); ok {
			return e
		}
	}
	return 0
}

// NotePrimarySeq records the primary's last observed sequence number;
// the shipping layer calls it on every poll so Status can report lag.
func (s *System) NotePrimarySeq(seq uint64) {
	if f := s.follower; f != nil && seq > f.primarySeq.Load() {
		f.primarySeq.Store(seq)
	}
}

// AppliedSeq returns a follower's replication cursor (the last applied
// operation), or the last logged sequence on a primary, or 0 on a
// standalone in-memory system.
func (s *System) AppliedSeq() uint64 {
	if f := s.follower; f != nil {
		return f.applied.Load()
	}
	if p := s.persist; p != nil {
		return p.store.Seq()
	}
	return 0
}

// writable reports whether direct writes are accepted: everything but
// an unpromoted follower.
func (s *System) writable() error {
	if f := s.follower; f != nil && !f.promoted.Load() {
		return errNotWritable
	}
	return nil
}

// Health states served by /healthz.
const (
	// HealthServing: the system answers questions and (role
	// permitting) accepts writes.
	HealthServing = "serving"
	// HealthRecovering: a follower is mid-reset — tables are
	// being replaced and reads may observe a mix of old and new
	// corpus. Probes should fail the node out until it clears.
	HealthRecovering = "recovering"
	// HealthWriteFailed: the durability latch is set (a WAL append
	// failed). Reads still work; ingestion is refused until restart.
	HealthWriteFailed = "write-failed"
)

// Health summarizes liveness for cheap load-balancer probes: one of
// HealthServing, HealthRecovering, HealthWriteFailed.
func (s *System) Health() string {
	if f := s.follower; f != nil && f.resetting.Load() {
		return HealthRecovering
	}
	if p := s.persist; p != nil && p.failed.Load() {
		return HealthWriteFailed
	}
	return HealthServing
}

// Replication role names.
const (
	RolePrimary    = "primary"
	RoleFollower   = "follower"
	RolePromoted   = "promoted"
	RoleStandalone = "standalone"
)

// ReplicationStatus reports a System's replication role and cursors.
type ReplicationStatus struct {
	// Role is RolePrimary (durable, ships its WAL), RoleFollower
	// (read-only replica), RolePromoted (a follower flipped writable
	// for failover), or RoleStandalone (in-memory, no replication).
	Role string
	// AppliedSeq is the follower's replication cursor: the sequence of
	// the last operation applied from the primary's stream. On a
	// primary it equals the last logged sequence.
	AppliedSeq uint64
	// PrimarySeq is the primary's last observed sequence (followers
	// only, reported by the shipping layer as it polls).
	PrimarySeq uint64
	// LagOps is PrimarySeq − AppliedSeq clamped at zero: how many
	// shipped-but-unapplied operations the follower is behind.
	LagOps uint64
	// ReadOnly reports whether direct writes are refused.
	ReadOnly bool
	// Epoch is the node's leadership-term fence (0 before any
	// election).
	Epoch uint64
	// QuorumSize is how many nodes must durably hold an AckQuorum
	// write before it is confirmed (1 without a replica set).
	QuorumSize int
}

// replicationStatus assembles the Status block.
func (s *System) replicationStatus() ReplicationStatus {
	if f := s.follower; f != nil {
		st := ReplicationStatus{
			Role:       RoleFollower,
			AppliedSeq: f.applied.Load(),
			PrimarySeq: f.primarySeq.Load(),
			Epoch:      s.Epoch(),
			QuorumSize: s.QuorumSize(),
		}
		if f.promoted.Load() {
			// A promoted follower IS the leader: report its log
			// position, not the stale apply cursor.
			st.Role = RolePromoted
			st.AppliedSeq = s.persist.store.Seq()
			st.PrimarySeq = st.AppliedSeq
		} else {
			st.ReadOnly = true
		}
		if st.PrimarySeq > st.AppliedSeq {
			st.LagOps = st.PrimarySeq - st.AppliedSeq
		}
		return st
	}
	if p := s.persist; p != nil {
		seq := p.store.Seq()
		return ReplicationStatus{
			Role: RolePrimary, AppliedSeq: seq, PrimarySeq: seq,
			Epoch: s.Epoch(), QuorumSize: s.QuorumSize(),
		}
	}
	return ReplicationStatus{Role: RoleStandalone, QuorumSize: s.QuorumSize()}
}

// Primary-side shipping accessors, served over HTTP by internal/webui.

// ReplSnapshotBlob returns the encoded current snapshot — the state
// transfer for a follower that cannot stream from its cursor
// (persist.DecodeSnapshot parses it, and its Seq is where the follower
// resumes polling the WAL). A primary
// that somehow lacks a snapshot file checkpoints first, so the
// transfer always reflects a real recovery point.
func (s *System) ReplSnapshotBlob() ([]byte, error) {
	p := s.persist
	if p == nil {
		return nil, ErrNotPrimary
	}
	blob, err := p.store.SnapshotBlob()
	if errors.Is(err, os.ErrNotExist) {
		// Open always writes an initial checkpoint, so this is a
		// deleted-out-from-under-us file; re-checkpoint and retry.
		if err := s.Checkpoint(); err != nil {
			return nil, err
		}
		blob, err = p.store.SnapshotBlob()
	}
	return blob, err
}

// ReplOpsSince returns the logged operations after the follower cursor
// `from`, plus the primary's current and checkpoint sequences. When
// from < checkpoint the WAL no longer reaches back far enough —
// compaction discarded the range — and ops is nil: the follower must
// reset from ReplSnapshotBlob.
func (s *System) ReplOpsSince(from uint64) (ops []persist.Op, seq, checkpoint uint64, err error) {
	p := s.persist
	if p == nil {
		return nil, 0, 0, ErrNotPrimary
	}
	return p.store.OpsSince(from)
}

// ReplWatch returns a channel closed when operations commit after the
// call — the long-poll primitive behind GET /api/repl/wal. Grab the
// channel, check ReplOpsSince, then block on the channel.
func (s *System) ReplWatch() (<-chan struct{}, error) {
	p := s.persist
	if p == nil {
		return nil, ErrNotPrimary
	}
	return p.store.Watch(), nil
}

// ReplEpochAt reports the leadership term of the logged operation at
// seq, when the retained history (checkpoint boundary through the log
// tip) covers it. The WAL handler uses it for log matching: a
// follower that presents a cursor whose term disagrees with the
// leader's history holds a diverged log and must reset from a
// snapshot.
func (s *System) ReplEpochAt(seq uint64) (epoch uint64, ok bool) {
	p := s.persist
	if p == nil {
		return 0, false
	}
	return p.store.EpochAt(seq)
}
