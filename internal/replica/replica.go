// Package replica implements the client half of WAL-shipping
// replication: a Follower tails a primary's write-ahead log over
// long-polled HTTP (GET /api/repl/wal?from=<seq>) into a durable
// follower System (core.OpenPeer on its own data directory), applying
// each shipped operation through core.System.ApplyOps, which also logs
// it locally. A fresh directory (cursor 0) first takes one snapshot
// transfer (GET /api/repl/snapshot), so its tables are the primary's
// and a follower hosting a domain the primary lacks is refused; after
// that each poll presents the System's own cursor, and a restarted
// follower resumes where its log ends. When the primary has compacted
// past that cursor (HTTP 410) or log matching finds it diverged (HTTP
// 409), the follower resets from one snapshot transfer — in place, so
// handlers holding the System keep working. The server half (the
// endpoints a primary serves) lives in internal/webui.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics/telemetry"
	"repro/internal/persist"
)

// Default tuning.
const (
	// DefaultPollWait is the server-side long-poll hold requested per
	// WAL poll.
	DefaultPollWait = 10 * time.Second
	// DefaultRetryInterval is the initial pause after a failed poll;
	// consecutive failures back off exponentially from here.
	DefaultRetryInterval = 500 * time.Millisecond
	// DefaultMaxRetryInterval caps the exponential backoff: a whole
	// replica set re-polling a restarting primary spreads out (each
	// interval is jittered) instead of arriving as a thundering herd,
	// but never waits longer than this to notice recovery.
	DefaultMaxRetryInterval = 5 * time.Second
	// applyChunk bounds how many decoded operations are applied per
	// ApplyOps call while draining one response, so a long catch-up
	// stream never buffers wholesale.
	applyChunk = 512
)

// Config wires a Follower.
type Config struct {
	// Primary is the primary's base URL (e.g. "http://primary:8080").
	Primary string
	// Client issues the HTTP requests; nil uses a client without a
	// global timeout (long polls hold connections open; cancellation
	// comes from contexts).
	Client *http.Client
	// PollWait is the long-poll hold requested from the primary; 0
	// means DefaultPollWait.
	PollWait time.Duration
	// RetryInterval is the pause after the first failed poll; 0 means
	// DefaultRetryInterval. Consecutive failures double it (with
	// jitter) up to MaxRetryInterval, and a success resets it.
	RetryInterval time.Duration
	// MaxRetryInterval caps the backoff; 0 means
	// DefaultMaxRetryInterval.
	MaxRetryInterval time.Duration
	// Node is this replica's identity, sent as the X-Cqads-Node
	// header on WAL polls so the primary can attribute apply
	// acknowledgements for quorum-acked writes. Empty sends no
	// header (the replica still converges; it just cannot contribute
	// to write quorums).
	Node string
	// SnapshotQuery, when non-empty, is appended as the query string of
	// every snapshot transfer, e.g. "partition=h3/4" to fetch only one
	// hash slice of the primary's state — the filtered transfer a
	// rebalance target takes as its baseline, and again if its source
	// compacts past its cursor. The WAL
	// tail stays unfiltered either way; a partitioned follower's replay
	// skips out-of-slice operations.
	SnapshotQuery string
}

// Follower is a live replica: a durable read-only System plus the
// background loop that keeps it converged with its primary.
type Follower struct {
	cfg Config
	// primary is the current upstream base URL (string). It starts as
	// cfg.Primary and is re-pointed by SetPrimary when failover
	// elects a new leader.
	primary atomic.Value
	sys     *core.System
	cancel  context.CancelFunc
	done    chan struct{}
	// started guards Start/stop transitions; the loop runs at most
	// once.
	started atomic.Bool
	// lastErr is the most recent sync failure, cleared by a successful
	// round — surfaced so operators can see a wedged follower.
	lastErr atomic.Value // syncErr
	// baselined is set once this Follower has taken the snapshot that
	// a System at cursor 0 starts from, so an idle primary (still at
	// sequence 0) is not transferred again every round.
	baselined atomic.Bool
}

// syncErr boxes an error for atomic.Value (which cannot store nil
// directly and requires a consistent concrete type).
type syncErr struct{ err error }

// Attach wraps a follower System — built by core.OpenPeer, recovered
// from its own directory — in a Follower tailing cfg.Primary, NOT yet
// tailing: call Start, or drive SyncOnce manually (tests do). Attach
// does no I/O. The first round of a System at cursor 0 takes a
// snapshot transfer; otherwise it presents the System's local cursor
// and applied epoch, and the leader either streams from there or
// answers 410 (compacted past it) or 409 (diverged), in which case the
// follower resets from a snapshot in place.
// `cqadsweb -replicate-from` builds one per process, and the failover
// agent one per leadership view.
func Attach(sys *core.System, cfg Config) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, fmt.Errorf("replica: Config.Primary is required")
	}
	if sys == nil {
		return nil, fmt.Errorf("replica: Attach requires a system")
	}
	f := newFollower(cfg)
	f.sys = sys
	return f, nil
}

// newFollower applies defaults and builds the shell.
func newFollower(cfg Config) *Follower {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = DefaultPollWait
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = DefaultRetryInterval
	}
	if cfg.MaxRetryInterval <= 0 {
		cfg.MaxRetryInterval = DefaultMaxRetryInterval
	}
	if cfg.MaxRetryInterval < cfg.RetryInterval {
		cfg.MaxRetryInterval = cfg.RetryInterval
	}
	f := &Follower{cfg: cfg, done: make(chan struct{})}
	f.primary.Store(cfg.Primary)
	return f
}

// Primary returns the upstream base URL the follower currently tails.
func (f *Follower) Primary() string { return f.primary.Load().(string) }

// SetPrimary re-points the follower at a new upstream — the failover
// re-pointing hook. The next poll presents the local cursor to the
// new leader; log matching decides whether streaming can continue or
// a snapshot reset is needed.
func (f *Follower) SetPrimary(url string) { f.primary.Store(url) }

// System returns the replica System. It is valid for the Follower's
// whole life: snapshot resets swap table contents in place, never the
// pointer.
func (f *Follower) System() *core.System { return f.sys }

// Err returns the most recent sync failure, nil when the last round
// succeeded.
func (f *Follower) Err() error {
	if v, ok := f.lastErr.Load().(syncErr); ok {
		return v.err
	}
	return nil
}

// Start launches the tail loop. Repeated calls are no-ops.
func (f *Follower) Start() {
	if !f.started.CompareAndSwap(false, true) {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go f.run(ctx)
}

// Close stops the tail loop and waits for it to exit. The System keeps
// serving reads from its last applied state. Close is idempotent and
// safe on a never-Started follower.
func (f *Follower) Close() {
	if f.cancel != nil {
		f.cancel()
	}
	if f.started.Load() {
		<-f.done
	}
}

// Promote stops replication and flips the System writable — the
// manual-failover escape hatch behind POST /api/repl/promote. The
// stream is stopped BEFORE the flip so no shipped operation can race a
// direct write.
func (f *Follower) Promote() error {
	f.Close()
	return f.sys.Promote()
}

// run is the tail loop: long-poll, apply, repeat; reset from a
// snapshot on compaction gaps; back off on errors. Failures are logged on state
// transitions (an error appearing, changing, or clearing) rather than
// per retry, so a wedged follower — a primary that stays down, a
// mis-seeded environment that diverges on every apply — is visible in
// the process log without flooding it at the retry cadence.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	failures := 0
	for {
		if ctx.Err() != nil {
			return
		}
		if _, err := f.SyncOnce(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			if prev := f.Err(); prev == nil || prev.Error() != err.Error() {
				log.Printf("replica: sync with %s failing (backing off up to %v): %v", f.Primary(), f.cfg.MaxRetryInterval, err)
			}
			f.lastErr.Store(syncErr{err})
			delay := f.retryDelay(failures)
			failures++
			select {
			case <-ctx.Done():
				return
			case <-time.After(delay):
			}
			continue
		}
		failures = 0
		if f.Err() != nil {
			log.Printf("replica: sync with %s recovered", f.Primary())
		}
		f.lastErr.Store(syncErr{})
	}
}

// retryDelay is the pause before retry number failures+1: exponential
// backoff from RetryInterval, capped at MaxRetryInterval, with full
// jitter over the upper half of the interval so a replica set
// re-polling a restarting primary spreads out instead of arriving in
// lockstep.
func (f *Follower) retryDelay(failures int) time.Duration {
	d := f.cfg.RetryInterval
	for i := 0; i < failures && d < f.cfg.MaxRetryInterval; i++ {
		d *= 2
	}
	if d > f.cfg.MaxRetryInterval {
		d = f.cfg.MaxRetryInterval
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half+1))
}

// errSnapshotNeeded is the internal signal that streaming from the
// local cursor is impossible — the primary compacted past it (410) or
// log matching found the cursor diverged under a fenced term (409) —
// and a snapshot transfer is needed.
var errSnapshotNeeded = errors.New("replica: cannot stream from local cursor; snapshot transfer needed")

// SyncOnce performs one replication round: a single long-polled WAL
// fetch, streaming-applied in chunks — or one snapshot transfer, when
// the primary has compacted past our cursor or when the System has
// applied nothing yet (cursor 0). That first transfer is the
// follower's baseline: its tables come from the primary, not from its
// own seed, and the coverage guard runs before anything is served as
// replicated. It returns the number of operations applied. Exported so
// tests (and diagnostics) can step a follower deterministically
// without the background loop.
func (f *Follower) SyncOnce(ctx context.Context) (applied int, err error) {
	if f.sys.AppliedSeq() == 0 && !f.baselined.Load() {
		if err := f.reset(ctx); err != nil {
			return 0, err
		}
		f.baselined.Store(true)
		return 0, nil
	}
	applied, err = f.pollAndApply(ctx)
	if errors.Is(err, errSnapshotNeeded) {
		if err := f.reset(ctx); err != nil {
			return 0, err
		}
		return 0, nil
	}
	return applied, err
}

// pollAndApply issues one GET /api/repl/wal long poll and applies the
// returned frames.
func (f *Follower) pollAndApply(ctx context.Context) (int, error) {
	from := f.sys.AppliedSeq()
	primary := f.Primary()
	url := fmt.Sprintf("%s/api/repl/wal?from=%d&epoch=%d&wait=%dms",
		primary, from, f.sys.AppliedEpoch(), f.cfg.PollWait.Milliseconds())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	if f.cfg.Node != "" {
		// Our poll cursor IS our durable apply position: presenting it
		// with an identity is the apply-ack a quorum write waits on.
		req.Header.Set("X-Cqads-Node", f.cfg.Node)
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("replica: polling WAL: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return 0, errSnapshotNeeded
	case http.StatusConflict:
		// Log matching failed: our cursor's term disagrees with the
		// leader's history — we hold a suffix written under a fenced
		// epoch (we were the old primary, or followed it too long).
		log.Printf("replica: %s rejected cursor %d (diverged log); resetting from a snapshot", primary, from)
		return 0, errSnapshotNeeded
	default:
		return 0, fmt.Errorf("replica: WAL poll: primary answered %s", resp.Status)
	}
	// Stream-level epoch fence: a response from a leader older than
	// the highest term we have acknowledged is a deposed primary's
	// late answer — reject it wholesale. (Individual frames may
	// legitimately carry older epochs: a new leader replays history.)
	if eh := resp.Header.Get("X-Cqads-Epoch"); eh != "" {
		epoch, err := strconv.ParseUint(eh, 10, 64)
		if err == nil {
			if fence := f.sys.Epoch(); epoch < fence {
				return 0, fmt.Errorf("replica: rejecting WAL stream from %s: epoch %d is fenced (our fence is %d)", primary, epoch, fence)
			}
			f.sys.NoteEpoch(epoch)
		}
	}
	if seq, err := strconv.ParseUint(resp.Header.Get("X-Cqads-Seq"), 10, 64); err == nil {
		f.sys.NotePrimarySeq(seq)
	}

	// Decode and apply in bounded chunks so a deep catch-up stream is
	// never buffered wholesale.
	dec := persist.NewOpReader(resp.Body)
	chunk := make([]persist.Op, 0, applyChunk)
	applied := 0
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := f.sys.ApplyOps(chunk); err != nil {
			var gap *core.GapError
			if errors.As(err, &gap) {
				return errSnapshotNeeded
			}
			return err
		}
		applied += len(chunk)
		telemetry.Repl.OpsApplied.Add(int64(len(chunk)))
		chunk = chunk[:0]
		return nil
	}
	for {
		op, err := dec.Next()
		if err != nil {
			if err == io.EOF {
				break
			}
			// A torn wire frame means the connection died mid-stream:
			// apply what arrived intact and re-poll from the new cursor.
			if errors.Is(err, persist.ErrTornFrame) {
				break
			}
			return applied, fmt.Errorf("replica: decoding WAL stream: %w", err)
		}
		chunk = append(chunk, op)
		if len(chunk) == applyChunk {
			if err := flush(); err != nil {
				return applied, err
			}
		}
	}
	if err := flush(); err != nil {
		return applied, err
	}
	f.noteLag()
	return applied, nil
}

// reset transfers a snapshot and resets the System in place.
func (f *Follower) reset(ctx context.Context) error {
	blob, err := f.fetchSnapshot(ctx)
	if err != nil {
		return err
	}
	snap, err := persist.DecodeSnapshot(blob)
	if err != nil {
		return fmt.Errorf("replica: decoding snapshot transfer: %w", err)
	}
	if err := f.sys.ResetToSnapshot(snap); err != nil {
		return err
	}
	f.noteLag()
	return nil
}

// fetchSnapshot performs one snapshot transfer.
func (f *Follower) fetchSnapshot(ctx context.Context) ([]byte, error) {
	target := f.Primary() + "/api/repl/snapshot"
	if f.cfg.SnapshotQuery != "" {
		target += "?" + f.cfg.SnapshotQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: fetching snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replica: snapshot transfer: primary answered %s", resp.Status)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("replica: reading snapshot transfer: %w", err)
	}
	telemetry.Repl.SnapshotsFetched.Add(1)
	return blob, nil
}

// noteLag publishes the current lag gauge.
func (f *Follower) noteLag() {
	st := f.sys.Status().Replication
	telemetry.Repl.LagOps.Set(int64(st.LagOps))
}
