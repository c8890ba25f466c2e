// Package rebalance drives live hash-partition moves for a shard
// cluster: splitting one slice of a partitioned domain and handing a
// child slice to a new owner, with zero dropped queries and every
// quorum-acked write preserved.
//
// The move choreography, given source slice S with children L and R
// (R moving to the target):
//
//  1. The target node is started by the operator as a durable
//     follower of the source with `-replicate-from <source> -partition
//     R -data DIR`: it starts from the source's R-filtered snapshot
//     section, then tails the source's (unfiltered) WAL from its own
//     cursor, applying and keeping only R's ops, and takes the section
//     again only if the source compacts past that cursor.
//  2. The coordinator polls the target's /healthz until it is serving
//     with no replication lag.
//  3. The router fences writes to R only — queued, not erroring — and
//     drains the overlapping writes already in flight. Queries are
//     never fenced: they keep scattering to the source, which still
//     holds all of S.
//  4. The source's WAL position is read; the coordinator waits until
//     the target has applied at least that far. Every write the
//     source ever acknowledged — quorum-acked ones included — is now
//     on the target.
//  5. The target is promoted writable, the router map cuts S over to
//     {L→source, R→target} atomically, and the source retires to L,
//     dropping R's rows and refusing R's keys (421) from then on.
//  6. The fence lifts; queued R writes flow to the target.
//
// Any post-fence failure unfences and leaves the map untouched — the
// source still owns S, so the move is abandonable at every step before
// the cutover, and the cutover itself is a single atomic map swap.
//
// After the move the target holds the only copy of R, in its own
// directory: every write it took after promotion is logged there. It
// restarts as a plain durable partition (`-domains D -partition R
// -data DIR`, no -replicate-from), and the source is not consulted.
package rebalance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/partition"
	"repro/internal/shard"
)

// DefaultMoveTimeout bounds one whole move, catch-up included.
const DefaultMoveTimeout = 2 * time.Minute

// pollInterval is the catch-up polling cadence. Short: the fence is
// held across the final wait, so every interval here is queued-write
// latency during cutover.
const pollInterval = 10 * time.Millisecond

// Coordinator implements shard.Rebalancer: one move at a time,
// progress observable through Status (the front tier's /api/status
// embeds it).
type Coordinator struct {
	rt     *shard.Router
	client *http.Client

	mu      sync.Mutex
	active  bool
	state   progress
	timeout time.Duration
}

// progress is the JSON-rendered move state.
type progress struct {
	Domain      string `json:"domain,omitempty"`
	Source      string `json:"source,omitempty"`
	TargetSlice string `json:"target_slice,omitempty"`
	TargetURL   string `json:"target_url,omitempty"`
	// Step is the phase the move is in: "catch-up", "fence", "drain",
	// "promote", "cutover", "retire", "done", or "failed".
	Step  string `json:"step"`
	Error string `json:"error,omitempty"`
}

// New builds a Coordinator over the router it will cut over. client
// nil uses a default with DefaultMoveTimeout as the per-request bound.
func New(rt *shard.Router, client *http.Client) *Coordinator {
	if client == nil {
		client = &http.Client{Timeout: DefaultMoveTimeout}
	}
	return &Coordinator{rt: rt, client: client, timeout: DefaultMoveTimeout, state: progress{Step: "idle"}}
}

// Status implements shard.Rebalancer.
func (c *Coordinator) Status() (json.RawMessage, bool) {
	c.mu.Lock()
	st := c.state
	active := c.active
	c.mu.Unlock()
	body, err := json.Marshal(st)
	if err != nil {
		return json.RawMessage(`{}`), active
	}
	return body, active
}

// Start implements shard.Rebalancer: validate, admit, and run the move
// in the background.
func (c *Coordinator) Start(req shard.RebalanceRequest) error {
	source, err := partition.Parse(req.Source)
	if err != nil {
		return fmt.Errorf("rebalance: bad source slice: %w", err)
	}
	target, err := partition.Parse(req.TargetSlice)
	if err != nil {
		return fmt.Errorf("rebalance: bad target slice: %w", err)
	}
	left, right := source.Split()
	var retain partition.Slice
	switch target {
	case left:
		retain = right
	case right:
		retain = left
	default:
		return fmt.Errorf("rebalance: target slice %s is not a direct child of source %s (children: %s, %s)",
			target, source, left, right)
	}
	if req.TargetURL == "" {
		return fmt.Errorf("rebalance: missing target_url")
	}
	parts, ok := c.rt.Partitions(req.Domain)
	if !ok {
		return fmt.Errorf("rebalance: unknown domain %q", req.Domain)
	}
	var sourceMembers []string
	for _, g := range parts {
		if g.Slice == source {
			sourceMembers = g.Members
		}
	}
	if sourceMembers == nil {
		return fmt.Errorf("rebalance: domain %q has no partition %s", req.Domain, source)
	}
	c.mu.Lock()
	if c.active {
		c.mu.Unlock()
		return fmt.Errorf("rebalance: a move is already running")
	}
	c.active = true
	c.state = progress{Domain: req.Domain, Source: req.Source,
		TargetSlice: req.TargetSlice, TargetURL: req.TargetURL, Step: "catch-up"}
	c.mu.Unlock()
	go c.run(req, source, target, retain, sourceMembers)
	return nil
}

// setStep publishes the move's phase.
func (c *Coordinator) setStep(step string) {
	c.mu.Lock()
	c.state.Step = step
	c.mu.Unlock()
}

// finish publishes the terminal state and re-opens the coordinator.
func (c *Coordinator) finish(err error) {
	c.mu.Lock()
	if err != nil {
		c.state.Step = "failed"
		c.state.Error = err.Error()
	} else {
		c.state.Step = "done"
	}
	c.active = false
	c.mu.Unlock()
}

// run executes the move choreography.
func (c *Coordinator) run(req shard.RebalanceRequest, source, target, retain partition.Slice, sourceMembers []string) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	fenced := false
	defer func() {
		if fenced {
			c.rt.Unfence(req.Domain)
		}
	}()

	// 1. The target must be a caught-up serving follower before any
	// write is delayed — the fence window is bounded by the residual
	// lag, not the full transfer.
	if err := c.waitCaughtUp(ctx, req.TargetURL, 0); err != nil {
		c.finish(fmt.Errorf("target catch-up: %w", err))
		return
	}

	// 2. Fence just the moving slice and drain in-flight writes.
	c.setStep("fence")
	if err := c.rt.FenceWrites(ctx, req.Domain, target); err != nil {
		c.finish(fmt.Errorf("fencing %s: %w", target, err))
		return
	}
	fenced = true

	// 3. With the fence up, the source's WAL position is final for the
	// moving slice; wait for the target to apply everything.
	c.setStep("drain")
	sourceURL, err := c.rt.PartitionLeader(ctx, req.Domain, source)
	if err != nil {
		c.finish(fmt.Errorf("resolving source leader: %w", err))
		return
	}
	seq, err := c.sourceSeq(ctx, sourceURL)
	if err != nil {
		c.finish(fmt.Errorf("reading source seq: %w", err))
		return
	}
	if err := c.waitApplied(ctx, req.TargetURL, seq); err != nil {
		c.finish(fmt.Errorf("target apply to seq %d: %w", seq, err))
		return
	}

	// 4. Promote the target writable. From here the move must go
	// forward — the target would otherwise accept writes nobody routes
	// to it — but every remaining step is local to this process.
	c.setStep("promote")
	if err := c.post(ctx, req.TargetURL, "/api/repl/promote", nil); err != nil {
		c.finish(fmt.Errorf("promoting target: %w", err))
		return
	}

	// 5. Cut the router over atomically.
	c.setStep("cutover")
	repl := []shard.Group{
		{Slice: retain, Members: sourceMembers},
		{Slice: target, Members: []string{req.TargetURL}},
	}
	if err := c.rt.SwapPartition(req.Domain, source, repl); err != nil {
		c.finish(fmt.Errorf("cutover: %w", err))
		return
	}

	// 6. Retire the moved rows from the source. Failure here is
	// non-fatal for correctness — the source merely holds dead rows the
	// scatter filter already hides — but it is surfaced as the move's
	// outcome so the operator retries the retirement.
	c.setStep("retire")
	body, _ := json.Marshal(map[string]string{"slice": retain.String()})
	if err := c.post(ctx, sourceURL, "/api/partition/retire", body); err != nil {
		c.finish(fmt.Errorf("retiring source to %s (rows already cut over; retry retirement): %w", retain, err))
		return
	}
	c.finish(nil)
}

// health is the slice of /healthz the coordinator reads.
type health struct {
	State      string `json:"state"`
	AppliedSeq uint64 `json:"applied_seq"`
	LagOps     uint64 `json:"lag_ops"`
}

// getHealth polls one node's /healthz.
func (c *Coordinator) getHealth(ctx context.Context, base string) (health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return health{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return health{}, err
	}
	defer resp.Body.Close()
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return health{}, fmt.Errorf("decoding healthz: %w", err)
	}
	return h, nil
}

// waitCaughtUp polls until the target serves with lag at most maxLag.
func (c *Coordinator) waitCaughtUp(ctx context.Context, base string, maxLag uint64) error {
	for {
		h, err := c.getHealth(ctx, base)
		if err == nil && h.State == "serving" && h.LagOps <= maxLag {
			return nil
		}
		if err := sleep(ctx, pollInterval); err != nil {
			return err
		}
	}
}

// waitApplied polls until the target has applied at least seq.
func (c *Coordinator) waitApplied(ctx context.Context, base string, seq uint64) error {
	for {
		h, err := c.getHealth(ctx, base)
		if err == nil && h.AppliedSeq >= seq {
			return nil
		}
		if err := sleep(ctx, pollInterval); err != nil {
			return err
		}
	}
}

// sourceSeq reads the source's durable WAL position from /api/status.
func (c *Coordinator) sourceSeq(ctx context.Context, base string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/status", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Persistence struct {
			Seq uint64 `json:"seq"`
		} `json:"persistence"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("decoding status: %w", err)
	}
	return st.Persistence.Seq, nil
}

// post issues one JSON POST and requires a 2xx answer.
func (c *Coordinator) post(ctx context.Context, base, path string, body []byte) error {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, reader)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s answered %d: %s", path, resp.StatusCode, e.Error)
	}
	return nil
}

// sleep waits d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
