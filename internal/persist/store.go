package persist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// walIndexEntry maps a group-commit batch's first sequence number to
// its byte offset in the log.
type walIndexEntry struct {
	seq uint64
	off int64
}

// epochStart marks where a leadership term begins in the sequence
// space: operations with Seq >= firstSeq (up to the next entry) carry
// epoch. The slice is the store's term history since the last
// checkpoint, used for log matching: a follower presents the epoch of
// its last applied op and the leader checks it against EpochAt, so a
// diverged log (same sequence numbers written under a fenced term) is
// detected instead of silently skipped as duplicates.
type epochStart struct {
	epoch    uint64
	firstSeq uint64
}

// File names inside a data directory.
const (
	// SnapshotFile is the checkpoint image.
	SnapshotFile = "snapshot.cqads"
	// WALFile is the write-ahead log of operations since the
	// checkpoint.
	WALFile = "wal.log"
)

// Store manages one data directory: the current snapshot, the WAL, and
// the sequence counter shared by both. It is safe for concurrent use;
// callers that need a batch of operations to be contiguous in the log
// (or need the snapshot to be consistent with a set of in-memory
// tables) provide their own higher-level ordering, as core.System
// does.
type Store struct {
	dir string

	mu       sync.Mutex
	wal      *os.File // cqads:guarded-by mu
	walBytes int64    // cqads:guarded-by mu
	seq      uint64   // cqads:guarded-by mu (last assigned operation sequence number)
	ckptSeq  uint64   // cqads:guarded-by mu (sequence covered by the on-disk snapshot)
	epoch    uint64   // cqads:guarded-by mu (current leadership term, stamped on appends)
	// epochs is the term history covering [ckptSeq, seq]; the first
	// entry is the baseline at the checkpoint boundary, later entries
	// record term changes observed in appended ops.
	epochs []epochStart // cqads:guarded-by mu
	snap   *Snapshot    // cqads:guarded-by mu
	tail   []Op         // cqads:guarded-by mu
	closed bool         // cqads:guarded-by mu
	// watch is closed and replaced whenever new operations commit, so
	// long-polling WAL shippers can block until there is something to
	// ship instead of spinning.
	watch chan struct{} // cqads:guarded-by mu
	// offsets indexes the log for shipping: one entry per group-commit
	// batch, mapping the batch's first sequence number to its byte
	// offset, so OpsSince starts decoding at the caller's cursor
	// instead of re-reading the whole log per poll. Reset with the log
	// at checkpoints; batches appended before this process opened the
	// store are simply absent (OpsSince falls back to offset 0, and
	// the sequence filter keeps it correct).
	offsets []walIndexEntry // cqads:guarded-by mu
	// syncs counts successful WAL fsyncs since Open — the denominator
	// of the group-commit amortization ratio (operations per fsync).
	// Atomic so Syncs never queues a monitoring read behind a commit;
	// it is only incremented while mu is held.
	syncs atomic.Int64
	// failed latches the store after a WAL write or sync error: the
	// file offset may sit inside a torn frame, so appending further
	// records would place them after bytes the recovery scan stops at
	// — fsync'd yet silently unrecoverable. Once failed, every Append
	// and WriteCheckpoint refuses; only Close works.
	failed error // cqads:guarded-by mu
}

// Open attaches to (creating if needed) the data directory. After a
// crash the torn WAL tail, if any, is truncated. The loaded snapshot
// and the replayable tail — the intact operations logged after it —
// are available via LoadedSnapshot and Tail until the first checkpoint
// releases them.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data dir: %w", err)
	}
	snap, err := readSnapshotFile(filepath.Join(dir, SnapshotFile))
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, snap: snap, watch: make(chan struct{})}
	if snap != nil {
		st.ckptSeq = snap.Seq
		st.seq = snap.Seq
		st.epoch = snap.Epoch
	}
	st.epochs = []epochStart{{epoch: st.epoch, firstSeq: st.ckptSeq}}
	// The log is streamed, not slurped: each intact record is filtered
	// into the replay tail as it is decoded, so a large WAL is never
	// buffered twice (file bytes + decoded ops).
	validLen, err := scanWAL(filepath.Join(dir, WALFile), func(op Op) {
		if op.Seq > st.seq {
			st.seq = op.Seq
		}
		if op.Epoch > st.epoch {
			st.epoch = op.Epoch
		}
		// Records at or below the checkpoint sequence are already in
		// the snapshot: a crash between snapshot publish and WAL
		// truncation legitimately leaves them behind.
		if op.Seq > st.ckptSeq {
			st.tail = append(st.tail, op)
			st.noteEpochLocked(op)
		}
	})
	if err != nil {
		return nil, err
	}
	wal, err := openWALForAppend(filepath.Join(dir, WALFile), validLen)
	if err != nil {
		return nil, err
	}
	st.wal = wal
	st.walBytes = validLen
	return st, nil
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// LoadedSnapshot returns the snapshot found at Open, nil when the
// directory had none (first run).
func (s *Store) LoadedSnapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// Tail returns the operations that must be replayed on top of the
// loaded snapshot, in log order.
func (s *Store) Tail() []Op {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tail
}

// ReleaseRecoveryState drops the loaded snapshot and tail once the
// caller has consumed them — the snapshot duplicates the whole corpus
// and would otherwise stay referenced until the first checkpoint,
// which a read-mostly server may not reach for a long time.
func (s *Store) ReleaseRecoveryState() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap = nil
	s.tail = nil
}

// Append assigns sequence numbers to ops, writes them as one
// contiguous run of frames and fsyncs once — the group-commit unit.
// When Append returns nil the operations are durable.
func (s *Store) Append(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	if s.failed != nil {
		return fmt.Errorf("persist: store has failed, restart to recover: %w", s.failed)
	}
	start := s.seq
	var buf []byte
	var err error
	for i := range ops {
		s.seq++
		ops[i].Seq = s.seq
		ops[i].Epoch = s.epoch
		if buf, err = AppendFrame(buf, ops[i]); err != nil {
			s.seq = start // none of the batch was written
			return err
		}
	}
	return s.commitLocked(ops, buf)
}

// AppendApplied appends operations that already carry sequence numbers
// and epochs assigned by a remote leader — the spooling path a durable
// follower uses to keep its local log identical to the stream it
// applied. The batch must extend the log contiguously with
// non-decreasing epochs no older than the current term; a violation
// means the caller is replaying a diverged or stale stream and nothing
// is written.
func (s *Store) AppendApplied(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	if s.failed != nil {
		return fmt.Errorf("persist: store has failed, restart to recover: %w", s.failed)
	}
	var buf []byte
	var err error
	seq, epoch := s.seq, s.epochs[len(s.epochs)-1].epoch
	for i := range ops {
		if ops[i].Seq != seq+1 {
			return fmt.Errorf("persist: spooled op seq %d does not extend log at %d", ops[i].Seq, seq)
		}
		if ops[i].Epoch < epoch {
			return fmt.Errorf("persist: spooled op epoch %d regresses from %d (fenced stream)", ops[i].Epoch, epoch)
		}
		seq, epoch = ops[i].Seq, ops[i].Epoch
		if buf, err = AppendFrame(buf, ops[i]); err != nil {
			return err
		}
	}
	s.seq = seq
	if epoch > s.epoch {
		s.epoch = epoch
	}
	return s.commitLocked(ops, buf)
}

// commitLocked writes one encoded group-commit batch, fsyncs, indexes
// it, and wakes long-polling shippers. Caller holds s.mu and has
// already advanced s.seq past the batch.
//
// cqads:requires-lock mu
func (s *Store) commitLocked(ops []Op, buf []byte) error {
	s.offsets = append(s.offsets, walIndexEntry{seq: ops[0].Seq, off: s.walBytes})
	for i := range ops {
		s.noteEpochLocked(ops[i])
	}
	n, err := s.wal.Write(buf)
	s.walBytes += int64(n)
	if err != nil {
		s.failed = fmt.Errorf("persist: appending to WAL: %w", err)
		return s.failed
	}
	if err := s.wal.Sync(); err != nil {
		s.failed = fmt.Errorf("persist: syncing WAL: %w", err)
		return s.failed
	}
	s.syncs.Add(1)
	// Wake long-polling shippers: the operations are durable now.
	close(s.watch)
	s.watch = make(chan struct{})
	return nil
}

// noteEpochLocked records op's term in the epoch history if it starts
// a new one. Caller holds s.mu.
//
// cqads:requires-lock mu
func (s *Store) noteEpochLocked(op Op) {
	if last := s.epochs[len(s.epochs)-1]; op.Epoch != last.epoch {
		s.epochs = append(s.epochs, epochStart{epoch: op.Epoch, firstSeq: op.Seq})
	}
}

// Watch returns a channel that is closed when operations commit after
// the call. The standard long-poll pattern is: grab the channel, check
// OpsSince, and only then block on the channel — the other order can
// miss a wakeup.
func (s *Store) Watch() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watch
}

// OpsSince decodes the committed log records with sequence numbers
// greater than from, in log order. It also reports the last committed
// sequence and the checkpoint sequence: when from < checkpoint the log
// no longer reaches back far enough (compaction discarded the range)
// and the caller must re-transfer the snapshot instead — ops is nil in
// that case.
//
// The read is taken against the committed length captured under the
// store lock, then performed outside it, so shipping never blocks
// ingestion. A checkpoint that truncates the log mid-read simply
// shortens the stream; the sequence filter keeps the result correct
// and the caller's next poll observes the moved checkpoint.
func (s *Store) OpsSince(from uint64) (ops []Op, seq, checkpoint uint64, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, 0, fmt.Errorf("persist: store is closed")
	}
	length := s.walBytes
	seq = s.seq
	checkpoint = s.ckptSeq
	wal := s.wal
	// Start decoding at the last group-commit batch that can contain
	// from+1, so a steady poller pays for the new frames, not the
	// whole log.
	start := int64(0)
	// The last batch whose first sequence is <= from+1 may straddle
	// the cursor; later batches are entirely past it.
	if i := sort.Search(len(s.offsets), func(i int) bool { return s.offsets[i].seq > from+1 }); i > 0 {
		start = s.offsets[i-1].off
	}
	s.mu.Unlock()
	if from < checkpoint {
		return nil, seq, checkpoint, nil // compacted past: snapshot needed
	}
	if from >= seq {
		return nil, seq, checkpoint, nil
	}
	dec := NewOpReader(io.NewSectionReader(wal, start, length-start))
	for {
		op, err := dec.Next()
		if err != nil {
			// A torn tail here means a concurrent truncation shortened
			// the section mid-read; everything decoded so far is intact
			// and correctly filtered, so return it.
			break
		}
		if op.Seq > from {
			ops = append(ops, op)
		}
	}
	return ops, seq, checkpoint, nil
}

// SnapshotBlob returns the raw bytes of the current on-disk snapshot —
// the initial state transfer for a new follower. The file is replaced
// atomically by checkpoints, so a concurrent read sees either the old
// image or the new one, never a torn mix. A store that has never
// checkpointed reports os.ErrNotExist.
func (s *Store) SnapshotBlob() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, SnapshotFile))
	if err != nil {
		return nil, fmt.Errorf("persist: reading snapshot for transfer: %w", err)
	}
	return data, nil
}

// WriteCheckpoint publishes snap as the new recovery point and resets
// the WAL. The caller guarantees snap reflects every operation
// appended so far (core.System blocks ingestion while exporting). The
// snapshot lands atomically before the WAL shrinks, so a crash at any
// point leaves a recoverable pair: old snapshot + full log, or new
// snapshot + (possibly still untruncated) log whose duplicate records
// are filtered by sequence number at the next Open.
func (s *Store) WriteCheckpoint(snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	if s.failed != nil {
		return fmt.Errorf("persist: store has failed, restart to recover: %w", s.failed)
	}
	snap.Seq = s.seq
	snap.Epoch = s.epochs[len(s.epochs)-1].epoch // term of the last included op
	if err := writeSnapshotFile(filepath.Join(s.dir, SnapshotFile), snap); err != nil {
		return err
	}
	s.ckptSeq = s.seq
	s.epochs = []epochStart{{epoch: snap.Epoch, firstSeq: s.ckptSeq}}
	s.snap = nil // recovery state no longer needed once superseded
	s.tail = nil
	if err := s.wal.Truncate(0); err != nil {
		// The file is unchanged: appends continue at the old offset and
		// the next Open filters the duplicate records by sequence, so
		// no latch — the store is bloated, not diverged.
		return fmt.Errorf("persist: truncating WAL after checkpoint: %w", err)
	}
	s.offsets = s.offsets[:0]
	if _, err := s.wal.Seek(0, 0); err != nil {
		// The file IS truncated but the descriptor offset is stale: the
		// next append would write past a zero-filled hole that the
		// recovery scan stops at, silently dropping fsync-acknowledged
		// operations. Latch shut instead.
		s.failed = fmt.Errorf("persist: rewinding WAL after checkpoint: %w", err)
		return s.failed
	}
	if err := s.wal.Sync(); err != nil {
		s.failed = fmt.Errorf("persist: syncing truncated WAL: %w", err)
		return s.failed
	}
	s.walBytes = 0
	return nil
}

// SetEpoch raises the store's leadership term; subsequent Appends are
// stamped with it. Epochs are monotonic — a lower value is ignored, so
// a late heartbeat from a deposed leader can never roll the term back.
func (s *Store) SetEpoch(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch > s.epoch {
		s.epoch = epoch
	}
}

// Epoch returns the current leadership term.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// EpochAt reports the term of the operation at seq. It answers for the
// range the retained history covers — the checkpoint boundary through
// the last appended op; outside that range ok is false and the caller
// should fall back to a snapshot transfer. This is the serving half of
// log matching: a follower presents (applied seq, applied epoch) and
// the leader accepts the cursor only when the terms agree.
func (s *Store) EpochAt(seq uint64) (epoch uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq < s.epochs[0].firstSeq || seq > s.seq {
		return 0, false
	}
	i := sort.Search(len(s.epochs), func(i int) bool { return s.epochs[i].firstSeq > seq })
	return s.epochs[i-1].epoch, true
}

// ResetTo re-baselines the store to a remote leader's snapshot,
// discarding the local log entirely — the recovery path for a deposed
// primary whose WAL diverged under a fenced term. The snapshot is
// published as the new checkpoint (keeping its own Seq/Epoch, unlike
// WriteCheckpoint which stamps the local counters) and the WAL is
// truncated; the sequence counter continues from snap.Seq.
func (s *Store) ResetTo(snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	if s.failed != nil {
		return fmt.Errorf("persist: store has failed, restart to recover: %w", s.failed)
	}
	if err := writeSnapshotFile(filepath.Join(s.dir, SnapshotFile), snap); err != nil {
		return err
	}
	s.seq = snap.Seq
	s.ckptSeq = snap.Seq
	if snap.Epoch > s.epoch {
		s.epoch = snap.Epoch
	}
	s.epochs = []epochStart{{epoch: snap.Epoch, firstSeq: snap.Seq}}
	s.snap = nil
	s.tail = nil
	if err := s.wal.Truncate(0); err != nil {
		// Unlike the checkpoint case the old log DIVERGES from the new
		// baseline, so leaving it behind is not safe: latch shut.
		s.failed = fmt.Errorf("persist: truncating WAL at reset: %w", err)
		return s.failed
	}
	s.offsets = s.offsets[:0]
	if _, err := s.wal.Seek(0, 0); err != nil {
		s.failed = fmt.Errorf("persist: rewinding WAL at reset: %w", err)
		return s.failed
	}
	if err := s.wal.Sync(); err != nil {
		s.failed = fmt.Errorf("persist: syncing truncated WAL at reset: %w", err)
		return s.failed
	}
	s.walBytes = 0
	close(s.watch)
	s.watch = make(chan struct{})
	return nil
}

// Seq returns the last assigned operation sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// CheckpointSeq returns the sequence number covered by the on-disk
// snapshot (0 before the first checkpoint).
func (s *Store) CheckpointSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptSeq
}

// WALSize returns the current log size in bytes — the compaction
// trigger input.
func (s *Store) WALSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walBytes
}

// Syncs returns the number of successful WAL fsyncs since Open. With
// group commit upstream, Syncs lagging the operation count is the
// amortization working; they advance in lockstep only under strictly
// serial writers.
func (s *Store) Syncs() int64 { return s.syncs.Load() }

// Close releases the WAL file handle. Further Appends and checkpoints
// fail; Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return fmt.Errorf("persist: syncing WAL at close: %w", err)
	}
	if err := s.wal.Close(); err != nil {
		return fmt.Errorf("persist: closing WAL: %w", err)
	}
	return nil
}
