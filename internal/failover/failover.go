// Package failover gives a replica set self-healing leadership: a
// lease-based election protocol layered on the WAL-shipping replication
// of internal/replica. Every node runs an Agent over its durable peer
// System (core.OpenPeer). The leader heartbeats the set; followers hold
// a jittered lease refreshed by accepted heartbeats and tail the
// leader's log. When the lease lapses — the leader crashed, hung, or
// was partitioned away — followers campaign: the freshest one (highest
// applied epoch, then highest applied sequence) collects a majority of
// votes, promotes itself at a higher epoch, and starts heartbeating.
// Deposed leaders learn the higher epoch from a rejected heartbeat (or
// the new leader's own heartbeat), demote back to followers, and
// re-attach a tail; if their log diverged while isolated, log matching
// answers 409 and they reset from the new leader's snapshot.
//
// Safety comes from epochs, not clocks. A vote is granted only to a
// candidate whose (applied epoch, applied sequence) is at least the
// voter's own — epoch first, so a deposed primary that kept writing
// under its stale term can never outrank a follower that applied the
// new term's history, no matter how many sequence numbers it minted
// while isolated. Every quorum-acked write therefore lives on at least
// one node of any elected majority, and the election picks a node that
// has it. Writes acked at AckLocal only carry no such guarantee: an
// isolated leader keeps accepting them (it does NOT step down on lost
// quorum — reads and local-durability writes stay available), and they
// are fenced away when it rejoins. That asymmetry is the documented
// durability contract: ack=quorum survives any single failure,
// ack=local survives anything except electing a new leader while the
// old one was isolated.
package failover

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics/telemetry"
	"repro/internal/replica"
)

const (
	// DefaultHeartbeatEvery is the leader's heartbeat cadence.
	DefaultHeartbeatEvery = 250 * time.Millisecond
	// DefaultLeaseTimeout is the base follower lease: miss heartbeats
	// for this long (plus per-grant jitter) and the follower campaigns.
	// It must comfortably exceed the heartbeat cadence so one dropped
	// packet does not trigger an election.
	DefaultLeaseTimeout = 2 * time.Second
)

// Agent roles, surfaced by Leader and GET /api/repl/leader. They
// describe the election state machine, not the storage role (a Leader
// agent's System reports core.RolePrimary or core.RolePromoted).
const (
	RoleLeader    = "leader"
	RoleFollower  = "follower"
	RoleCandidate = "candidate"
)

// Heartbeat is the leader's lease-renewal message, POSTed to every
// peer's /api/repl/heartbeat each cadence tick.
type Heartbeat struct {
	// Epoch is the leader's term. A peer that has seen a higher term
	// rejects the heartbeat, telling the sender it was deposed.
	Epoch uint64 `json:"epoch"`
	// Leader is the sender's advertised base URL; accepting peers
	// re-point their WAL tails here.
	Leader string `json:"leader"`
	// Seq is the leader's last committed log sequence, letting
	// followers track lag between polls.
	Seq uint64 `json:"seq"`
}

// HeartbeatResponse acknowledges or fences a heartbeat.
type HeartbeatResponse struct {
	Ok bool `json:"ok"`
	// Epoch is the responder's current term — on rejection, the higher
	// term that fences the sender.
	Epoch uint64 `json:"epoch"`
}

// VoteRequest is a candidate's campaign message for one peer's vote.
type VoteRequest struct {
	// Epoch is the term the candidate is campaigning for — strictly
	// above every term it has seen.
	Epoch uint64 `json:"epoch"`
	// Candidate is the campaigner's advertised base URL.
	Candidate string `json:"candidate"`
	// AppliedSeq and AppliedEpoch are the candidate's log position.
	// Voters compare (AppliedEpoch, AppliedSeq) lexicographically
	// against their own — epoch FIRST: a stale primary's isolated
	// writes may give it the higher sequence, but they carry a fenced
	// term and must not win an election (they would take quorum-acked
	// writes down with them).
	AppliedSeq   uint64 `json:"applied_seq"`
	AppliedEpoch uint64 `json:"applied_epoch"`
}

// VoteResponse grants or denies a vote.
type VoteResponse struct {
	Granted bool `json:"granted"`
	// Epoch is the responder's current term, so a denied candidate
	// learns how far behind it is.
	Epoch uint64 `json:"epoch"`
}

// Config wires an Agent.
type Config struct {
	// Self is this node's advertised base URL — its identity in votes,
	// heartbeats, and quorum acks. Required.
	Self string
	// Peers are the replica set's advertised base URLs. Self may be
	// included (it is filtered out); the set size including self
	// defines the vote majority and should match core.Config.ReplicaSet
	// so write quorums and election quorums agree.
	Peers []string
	// Sys is the durable peer System (core.OpenPeer) the agent manages.
	// Required.
	Sys *core.System
	// Client issues heartbeat and vote requests; nil uses a dedicated
	// client (per-request timeouts come from contexts).
	Client *http.Client
	// HeartbeatEvery is the leader's heartbeat cadence; 0 means
	// DefaultHeartbeatEvery.
	HeartbeatEvery time.Duration
	// LeaseTimeout is the base follower lease; 0 means
	// DefaultLeaseTimeout. Each renewal is jittered to [T, 1.5T) so
	// followers' election timers never fire in lockstep.
	LeaseTimeout time.Duration
	// Tail is the template for the WAL tail the agent runs while
	// following (PollWait, RetryInterval, ...). Primary and Node are
	// overwritten with the current leader and Self.
	Tail replica.Config
}

// Agent is one node's failover state machine. It owns the node's WAL
// tail (attaching one per leadership view) and drives promote/demote on
// the underlying System; webui exposes its HandleHeartbeat/HandleVote
// over HTTP and its Leader view at GET /api/repl/leader.
type Agent struct {
	cfg   Config
	peers []string // excluding Self

	mu    sync.Mutex
	role  string // cqads:guarded-by mu
	epoch uint64 // cqads:guarded-by mu (term of the last accepted leader view)
	// votedEpoch is the highest term this node has voted in (for itself
	// when campaigning, or for a peer). One vote per term is what makes
	// a majority exclusive.
	votedEpoch  uint64            // cqads:guarded-by mu
	leader      string            // cqads:guarded-by mu (current leader's URL; "" when unknown)
	leaseExpiry time.Time         // cqads:guarded-by mu
	tail        *replica.Follower // cqads:guarded-by mu

	cancel context.CancelFunc
	done   chan struct{}
	closed bool
}

// New builds an Agent in the follower role with a full (jittered)
// lease, so an existing leader has one lease period to announce itself
// before anyone campaigns. Call Start to begin participating.
func New(cfg Config) (*Agent, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("failover: Config.Self is required")
	}
	if cfg.Sys == nil {
		return nil, fmt.Errorf("failover: Config.Sys is required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = DefaultLeaseTimeout
	}
	a := &Agent{
		cfg:  cfg,
		role: RoleFollower,
		// The term the local log recovered with: elections start above
		// whatever history this node carries.
		epoch: cfg.Sys.Epoch(),
		done:  make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		if p != "" && p != cfg.Self {
			a.peers = append(a.peers, p)
		}
	}
	a.leaseExpiry = time.Now().Add(a.jitteredLease())
	return a, nil
}

// jitteredLease is one lease period with per-grant jitter in
// [T, 1.5T): randomized timers are what breaks symmetric election ties.
func (a *Agent) jitteredLease() time.Duration {
	t := a.cfg.LeaseTimeout
	return t + time.Duration(rand.Int63n(int64(t)/2+1))
}

// setSize is the voting membership including self.
func (a *Agent) setSize() int { return len(a.peers) + 1 }

// Start launches the election loop. Repeated calls are no-ops.
func (a *Agent) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cancel != nil || a.closed {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	a.cancel = cancel
	go a.run(ctx)
}

// Close stops the loop and the tail. The System keeps its current role:
// closing a leader's agent does not demote it.
func (a *Agent) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	cancel, tail := a.cancel, a.tail
	a.tail = nil
	a.mu.Unlock()
	if cancel != nil {
		cancel()
		<-a.done
	} else {
		close(a.done)
	}
	if tail != nil {
		tail.Close()
	}
}

// Leader reports the agent's current view: the leader's URL (empty when
// unknown — between a lease lapse and the next election), the term, and
// this agent's role. GET /api/repl/leader serves exactly this.
func (a *Agent) Leader() (url string, epoch uint64, role string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.leader, a.epoch, a.role
}

// run is the cadence loop: leaders heartbeat every tick, followers and
// candidates check their lease and campaign when it lapses.
func (a *Agent) run(ctx context.Context) {
	defer close(a.done)
	ticker := time.NewTicker(a.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		a.mu.Lock()
		role, expiry := a.role, a.leaseExpiry
		a.mu.Unlock()
		switch {
		case role == RoleLeader:
			a.heartbeatPeers(ctx)
		case time.Now().After(expiry):
			if a.campaign(ctx) {
				// Announce immediately: peers' leases are already
				// lapsing; the sooner they hear the new term, the fewer
				// competing candidacies.
				a.heartbeatPeers(ctx)
			}
		}
	}
}

// leaderSeq is the log position a leader advertises in heartbeats. The
// replication status special-cases a promoted durable peer to report
// the store tip (its applied cursor stopped moving at promotion).
func (a *Agent) leaderSeq() uint64 {
	return a.cfg.Sys.Status().Replication.AppliedSeq
}

// heartbeatPeers sends one round of lease renewals. A rejection
// carrying a higher term means this leader was deposed while it wasn't
// looking: demote and wait for the new leader's announcement.
func (a *Agent) heartbeatPeers(ctx context.Context) {
	a.mu.Lock()
	if a.role != RoleLeader {
		a.mu.Unlock()
		return
	}
	hb := Heartbeat{Epoch: a.epoch, Leader: a.cfg.Self, Seq: a.leaderSeq()}
	peers := a.peers
	a.mu.Unlock()

	telemetry.Failover.HeartbeatsSent.Add(int64(len(peers)))
	var fenced struct {
		sync.Mutex
		epoch uint64
	}
	rctx, rcancel := context.WithTimeout(ctx, a.cfg.HeartbeatEvery*2)
	defer rcancel()
	var wg sync.WaitGroup
	for _, peer := range peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			var resp HeartbeatResponse
			err := a.postJSON(rctx, peer+"/api/repl/heartbeat", hb, &resp)
			if err == nil && !resp.Ok && resp.Epoch > hb.Epoch {
				fenced.Lock()
				if resp.Epoch > fenced.epoch {
					fenced.epoch = resp.Epoch
				}
				fenced.Unlock()
			}
			// Unreachable peers are simply missed renewals — an
			// isolated leader deliberately keeps serving (reads and
			// ack=local writes); ack=quorum writes fail on their own.
		}(peer)
	}
	wg.Wait()
	if fenced.epoch > 0 {
		a.stepDown(fenced.epoch)
	}
}

// stepDown demotes a deposed leader: fence the System at the higher
// term, flip read-only, and hold a full lease open for the new leader's
// heartbeat (its announcement carries the tail target).
func (a *Agent) stepDown(epoch uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.role != RoleLeader || epoch <= a.epoch {
		return
	}
	telemetry.Failover.StepDowns.Add(1)
	log.Printf("failover: %s deposed at epoch %d by epoch %d; demoting", a.cfg.Self, a.epoch, epoch)
	if err := a.cfg.Sys.Demote(epoch); err != nil {
		log.Printf("failover: demoting %s: %v", a.cfg.Self, err)
	}
	a.role = RoleFollower
	a.epoch = epoch
	a.leader = ""
	a.leaseExpiry = time.Now().Add(a.jitteredLease())
}

// campaign runs one election at a term above everything this node has
// seen, reporting whether it won. Called with a lapsed lease.
func (a *Agent) campaign(ctx context.Context) (won bool) {
	a.mu.Lock()
	if a.role == RoleLeader || a.closed || time.Now().Before(a.leaseExpiry) {
		a.mu.Unlock()
		return false
	}
	epoch := max(a.epoch, a.votedEpoch, a.cfg.Sys.Epoch()) + 1
	a.votedEpoch = epoch // our own vote, exclusive for this term
	a.role = RoleCandidate
	// Our lease lapsed: stop vouching for the old leader. Without this
	// a failed campaign leaves the stale leader pointer armed behind a
	// re-armed lease, and rival ex-followers deny each other's votes
	// (the disruption guard) for round after round.
	a.leader = ""
	req := VoteRequest{
		Epoch:        epoch,
		Candidate:    a.cfg.Self,
		AppliedSeq:   a.cfg.Sys.AppliedSeq(),
		AppliedEpoch: a.cfg.Sys.AppliedEpoch(),
	}
	// Re-arm the timer now: a lost election waits a fresh jittered
	// lease before retrying, de-synchronizing rival candidates.
	a.leaseExpiry = time.Now().Add(a.jitteredLease())
	peers := a.peers
	a.mu.Unlock()

	telemetry.Failover.Elections.Add(1)
	var tally struct {
		sync.Mutex
		grants   int
		maxEpoch uint64
	}
	tally.grants = 1 // self
	rctx, rcancel := context.WithTimeout(ctx, a.cfg.LeaseTimeout/2)
	defer rcancel()
	var wg sync.WaitGroup
	for _, peer := range peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			var resp VoteResponse
			if err := a.postJSON(rctx, peer+"/api/repl/vote", req, &resp); err != nil {
				return
			}
			tally.Lock()
			defer tally.Unlock()
			if resp.Granted {
				tally.grants++
			}
			if resp.Epoch > tally.maxEpoch {
				tally.maxEpoch = resp.Epoch
			}
		}(peer)
	}
	wg.Wait()

	a.mu.Lock()
	defer a.mu.Unlock()
	if a.role != RoleCandidate || a.epoch >= epoch {
		return false // a leader announced itself mid-campaign
	}
	if tally.maxEpoch > epoch {
		// Someone is already past this term; never campaign below it.
		a.votedEpoch = tally.maxEpoch
		a.role = RoleFollower
		return false
	}
	if 2*tally.grants <= a.setSize() {
		a.role = RoleFollower // lost; retry after the re-armed jittered lease
		return false
	}
	// Won. Stop following before flipping writable so no late shipped
	// frame can race a direct write, then promote at the new term.
	if a.tail != nil {
		a.tail.Close()
		a.tail = nil
	}
	if err := a.cfg.Sys.PromoteTo(epoch); err != nil {
		log.Printf("failover: %s won epoch %d but promote failed: %v", a.cfg.Self, epoch, err)
		a.role = RoleFollower
		return false
	}
	telemetry.Failover.Promotions.Add(1)
	log.Printf("failover: %s promoted to leader at epoch %d (%d/%d votes)",
		a.cfg.Self, epoch, tally.grants, a.setSize())
	a.role = RoleLeader
	a.epoch = epoch
	a.leader = a.cfg.Self
	return true
}

// HandleHeartbeat is the receiving half of the lease protocol, wired to
// POST /api/repl/heartbeat. Accepting a heartbeat renews the lease,
// adopts the sender as leader (demoting ourselves if we thought WE
// led), and re-points the WAL tail; a heartbeat below our term is the
// deposed primary knocking — reject it with the term that fences it.
func (a *Agent) HandleHeartbeat(hb Heartbeat) HeartbeatResponse {
	a.mu.Lock()
	defer a.mu.Unlock()
	if hb.Epoch < a.epoch || (hb.Epoch == a.epoch && a.role == RoleLeader && hb.Leader != a.cfg.Self) {
		// Same-term rival leaders cannot both hold majorities; the
		// equal-epoch arm only fires on anomalies (e.g. a replayed
		// message) and fencing is the safe answer.
		telemetry.Failover.HeartbeatsRejected.Add(1)
		return HeartbeatResponse{Ok: false, Epoch: a.epoch}
	}
	if a.role == RoleLeader {
		telemetry.Failover.StepDowns.Add(1)
		log.Printf("failover: %s deposed at epoch %d by %s at epoch %d; demoting",
			a.cfg.Self, a.epoch, hb.Leader, hb.Epoch)
		if err := a.cfg.Sys.Demote(hb.Epoch); err != nil {
			log.Printf("failover: demoting %s: %v", a.cfg.Self, err)
		}
	}
	a.role = RoleFollower
	a.epoch = hb.Epoch
	a.leader = hb.Leader
	a.leaseExpiry = time.Now().Add(a.jitteredLease())
	// Raise the stream fence so a deposed primary's late WAL responses
	// are rejected, and record the leader's tip for lag accounting.
	a.cfg.Sys.NoteEpoch(hb.Epoch)
	a.cfg.Sys.NotePrimarySeq(hb.Seq)
	a.retargetTailLocked()
	return HeartbeatResponse{Ok: true, Epoch: a.epoch}
}

// retargetTailLocked points the WAL tail at the current leader,
// attaching one if this is the first leader this view has seen. Called
// with a.mu held.
//
// cqads:requires-lock mu
func (a *Agent) retargetTailLocked() {
	if a.leader == "" || a.leader == a.cfg.Self || a.closed {
		return
	}
	if a.tail != nil {
		if a.tail.Primary() != a.leader {
			a.tail.SetPrimary(a.leader)
		}
		return
	}
	cfg := a.cfg.Tail
	cfg.Primary = a.leader
	cfg.Node = a.cfg.Self
	tail, err := replica.Attach(a.cfg.Sys, cfg)
	if err != nil {
		log.Printf("failover: attaching tail to %s: %v", a.leader, err)
		return
	}
	a.tail = tail
	tail.Start()
}

// HandleVote is the voting booth, wired to POST /api/repl/vote. The
// grant conditions, in order: the term must be new to us (one vote per
// term), the candidate's log must be at least as fresh as ours — epoch
// before sequence — and our own lease must have lapsed (a candidate
// campaigning while we still hear a live leader is a disruption, not a
// failover).
func (a *Agent) HandleVote(req VoteRequest) VoteResponse {
	a.mu.Lock()
	defer a.mu.Unlock()
	deny := VoteResponse{Granted: false, Epoch: max(a.epoch, a.votedEpoch)}
	if req.Epoch <= a.epoch || req.Epoch <= a.votedEpoch {
		return deny
	}
	ourEpoch, ourSeq := a.cfg.Sys.AppliedEpoch(), a.cfg.Sys.AppliedSeq()
	if req.AppliedEpoch < ourEpoch ||
		(req.AppliedEpoch == ourEpoch && req.AppliedSeq < ourSeq) {
		return deny // we hold history the candidate lacks
	}
	if a.role == RoleLeader || (a.leader != "" && time.Now().Before(a.leaseExpiry)) {
		return deny // a live leader exists as far as we can tell
	}
	a.votedEpoch = req.Epoch
	// Granting re-arms our own timer: give the winner a full lease to
	// announce itself before we campaign against it.
	a.leaseExpiry = time.Now().Add(a.jitteredLease())
	telemetry.Failover.VotesGranted.Add(1)
	return VoteResponse{Granted: true, Epoch: req.Epoch}
}

// postJSON is one JSON round trip. Non-2xx responses are not errors
// here: protocol rejections (409) carry meaning in their decoded body.
func (a *Agent) postJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}
