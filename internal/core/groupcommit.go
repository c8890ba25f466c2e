package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/persist"
	"repro/internal/sqldb"
)

// This file is the group-commit scheduler: the one path a single
// durable write takes.
//
// If every InsertAd/DeleteAd paid its own WAL fsync, under concurrent
// writers the disk would serialize them and the fsync would become
// the write-flood bottleneck. The scheduler routes single writes
// through a committer that drains everything queued, applies the
// mutations under the ingest lock in arrival order, and logs them
// with ONE persist.Store.Append — one fsync for the whole batch.
//
// The committer goroutine is transient: the first write of a burst
// spawns it, and it exits as soon as the queue drains. An idle System
// therefore holds no goroutine, and a System that is abandoned without
// Close (a crash being simulated, a test killing a primary) leaks
// nothing.
//
// The semantics are those of one write, one append, one fsync, just
// batched:
//
//   - Log order equals mutation order: both happen under persister.mu
//     in the same loop, which recovery replay and RowID verification
//     rely on.
//   - A writer is released only after the Append covering its op
//     returned, i.e. after ITS bytes are fsync'd; AckQuorum waits
//     happen caller-side afterwards, off the ingest lock.
//   - Admission control (admitLocked) and the ingestable gate run
//     per queued write, before its table mutation.
//   - A failed Append latches the persister; every writer whose
//     mutation was in the doomed batch gets ErrDurabilityLost, and
//     writers in later batches are refused before any table is
//     touched.
//
// The committer adds no latency to a lone writer: with an empty queue
// the batch is size one and commits immediately. Coalescing emerges
// from the fsync itself — while one batch is syncing, the next writers
// queue up and form the next batch.

// maxGroupCommitOps caps one batch, bounding both the single Append's
// buffer and how long the ingest lock is held per commit.
const maxGroupCommitOps = 512

// gcRequest is one single-write mutation queued for group commit.
type gcRequest struct {
	domain string
	del    bool                   // delete (id) rather than insert (values)
	values map[string]sqldb.Value // insert payload
	id     sqldb.RowID            // delete target
	pin    sqldb.RowID            // caller-chosen insert RowID, unpinned (-1) for self-assignment
	ack    AckLevel
	// done receives exactly one result; buffered so the committer
	// never blocks on a delivering send.
	done chan gcResult
}

// gcResult is a queued write's outcome. seq is the assigned log
// sequence (for quorum tracking), valid when err is nil.
type gcResult struct {
	id  sqldb.RowID
	seq uint64
	err error
}

// groupCommitter owns the queue between single writers and the
// transient committer goroutine.
type groupCommitter struct {
	mu     sync.Mutex
	closed bool         // cqads:guarded-by mu
	queue  []*gcRequest // cqads:guarded-by mu
	// running is true while a committer goroutine is live. The
	// submitter that flips it false→true spawns the goroutine; the
	// goroutine flips it back under mu just before exiting, so exactly
	// one committer exists per burst and no queued write is orphaned.
	running bool // cqads:guarded-by mu
	// wg tracks the live committer goroutine so shutdown can wait for
	// its in-flight batch.
	wg sync.WaitGroup
	// batched counts requests dequeued into a batch but not yet
	// resolved. Tests use it to sequence fault injection around a
	// commit that is blocked on the ingest lock.
	batched atomic.Int64
}

// queued reports the current queue depth (requests accepted but not
// yet dequeued into a batch).
func (c *groupCommitter) queued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// takeBatch dequeues up to maxGroupCommitOps requests for the
// committer goroutine. A nil return means the goroutine must exit —
// the queue is empty (running has been cleared, so the next submit
// spawns a fresh committer) or shutdown owns the remainder.
func (c *groupCommitter) takeBatch() []*gcRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.queue) == 0 {
		c.running = false
		return nil
	}
	n := min(len(c.queue), maxGroupCommitOps)
	batch := c.queue[:n:n]
	c.queue = append([]*gcRequest(nil), c.queue[n:]...)
	c.batched.Add(int64(n))
	return batch
}

// submitGrouped queues one write, failing instead of queueing when the
// committer is shut down (so no writer can block forever on a queue
// nothing drains). A nil error means the committer owns the request
// and will deliver exactly one result on r.done. When no committer
// goroutine is live, the submitter spawns one — the spawn and the
// append happen under the same mu hold, so shutdown (which takes mu
// before waiting) can never miss it.
func (s *System) submitGrouped(c *groupCommitter, r *gcRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("core: system is closed")
	}
	c.queue = append(c.queue, r)
	if !c.running {
		c.running = true
		c.wg.Add(1)
		go s.runGroupCommits(c)
	}
	return nil
}

// shutdown stops the committer, waits for any in-flight batch, and
// resolves everything still queued. persister.closed is already set by
// Close, so each leftover batch fails its ingestable gate and every
// writer gets "system is closed" — no table is touched, nothing is
// acked. Callers must NOT hold persister.mu: the committer acquires it
// to resolve in-flight batches. Idempotent.
func (s *System) shutdownGroupCommits(c *groupCommitter) {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	// A live committer sees closed at its next takeBatch and exits;
	// submitters can no longer queue or spawn.
	c.wg.Wait()
	c.mu.Lock()
	rest := c.queue
	c.queue = nil
	c.batched.Add(int64(len(rest)))
	c.mu.Unlock()
	for len(rest) > 0 {
		n := min(len(rest), maxGroupCommitOps)
		s.commitGroup(c, rest[:n])
		rest = rest[n:]
	}
}

// insertAdGrouped is the single-insert durable path: queue the write
// on the group committer and wait for the batch that carries it.
func (s *System) insertAdGrouped(domain string, values map[string]sqldb.Value, pin sqldb.RowID, ack AckLevel) (sqldb.RowID, uint64, error) {
	c := s.persist.gc
	r := &gcRequest{domain: domain, values: values, pin: pin, ack: ack, done: make(chan gcResult, 1)}
	if err := s.submitGrouped(c, r); err != nil {
		return 0, 0, err
	}
	res := <-r.done
	return res.id, res.seq, res.err
}

// deleteAdGrouped is the single-delete durable path (see
// insertAdGrouped).
func (s *System) deleteAdGrouped(domain string, id sqldb.RowID, ack AckLevel) (uint64, error) {
	c := s.persist.gc
	r := &gcRequest{domain: domain, del: true, id: id, pin: unpinned, ack: ack, done: make(chan gcResult, 1)}
	if err := s.submitGrouped(c, r); err != nil {
		return 0, err
	}
	res := <-r.done
	return res.seq, res.err
}

// runGroupCommits is the transient committer goroutine: commit batches
// until the queue drains, then exit (takeBatch clears running under mu,
// so the next submit spawns a successor). Writers that arrive while a
// batch's fsync is in flight form the next batch — coalescing needs no
// timer, the sync itself is the accumulation window.
func (s *System) runGroupCommits(c *groupCommitter) {
	defer c.wg.Done()
	for {
		batch := c.takeBatch()
		if batch == nil {
			return
		}
		s.commitGroup(c, batch)
	}
}

// commitGroup applies one batch under the ingest lock — per-request
// admission, mutation in arrival order, one Append/fsync for all the
// surviving ops — then releases every writer with its result.
func (s *System) commitGroup(c *groupCommitter, batch []*gcRequest) {
	p := s.persist
	results := make([]gcResult, len(batch))
	// opIdx maps each request to its op in the Append batch, -1 when
	// the request never produced one (refused or failed mutation).
	opIdx := make([]int, len(batch))
	p.mu.Lock()
	if err := p.ingestable(); err != nil {
		for i := range results {
			results[i].err = err
		}
	} else {
		ops := make([]persist.Op, 0, len(batch))
		for i, r := range batch {
			opIdx[i] = -1
			if err := s.admitLocked(r.ack); err != nil {
				results[i].err = err
				continue
			}
			if r.del {
				if err := s.deleteAdLocked(r.domain, r.id); err != nil {
					results[i].err = err
					continue
				}
				results[i].id = r.id
				opIdx[i] = len(ops)
				ops = append(ops, persist.Op{Kind: persist.OpDelete, Domain: r.domain, ID: r.id})
			} else {
				id, err := s.insertAdLocked(r.domain, r.values, r.pin)
				if err != nil {
					results[i].err = err
					continue
				}
				results[i].id = id
				opIdx[i] = len(ops)
				ops = append(ops, insertOpFor(r.domain, id, r.values))
			}
		}
		if len(ops) > 0 {
			if err := p.store.Append(ops); err != nil {
				// Same divergence as the per-call path, batched: the
				// mutations are in memory but not in the log. Latch
				// ingestion shut and fail every writer whose op was in
				// the doomed Append.
				p.failed.Store(true)
				for i, r := range batch {
					if opIdx[i] < 0 {
						continue
					}
					verb := "inserted"
					if r.del {
						verb = "deleted"
					}
					results[i].err = fmt.Errorf("core: ad %d %s but not logged (%v): %w", results[i].id, verb, err, ErrDurabilityLost)
				}
			} else {
				for i := range batch {
					if opIdx[i] >= 0 {
						results[i].seq = ops[opIdx[i]].Seq
					}
				}
				s.maybeCompact()
			}
		}
	}
	p.mu.Unlock()
	for i, r := range batch {
		r.done <- results[i]
		c.batched.Add(-1)
	}
}
