package failover_test

// Integration tests for self-healing replication: real peers (durable
// OpenPeer systems behind real webui HTTP servers) running real
// Agents, with only the clocks shortened. The acceptance bar is the
// one from the failover design: kill the leader mid-workload and every
// quorum-acked write must survive into the next term, with the healed
// set answering bit-identically to a system that never failed.

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/cqads"
	"repro/internal/adsgen"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/metrics/telemetry"
	"repro/internal/pool"
	"repro/internal/replica"
	"repro/internal/schema"
	"repro/internal/shard/shardtest"
	"repro/internal/sqldb"
	"repro/internal/webui"
)

// Shortened clocks: lease and heartbeat scaled down ~10x so elections
// settle in hundreds of milliseconds instead of seconds. The ratios
// (lease >> heartbeat, poll ≈ 2x heartbeat) match production.
const (
	testHeartbeat = 30 * time.Millisecond * raceScale
	testLease     = 300 * time.Millisecond * raceScale
	convergeIn    = 30 * time.Second
)

// checkGoroutines records the goroutine count and fails the test if it
// has not returned to that level shortly after all other cleanups ran
// — every Agent loop, WAL tail poller and httptest server must
// actually wind down. Register it FIRST via t.Cleanup so it runs last.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	})
}

// testOpts is the shared deterministic environment; every peer and the
// never-failed reference system must build identically.
func testOpts() cqads.Options {
	return cqads.Options{Seed: 7, AdsPerDomain: 90}
}

// blockingTransport simulates a network partition: destinations in the
// blocked set get a refused connection instead of a round trip.
type blockingTransport struct {
	mu      sync.Mutex
	blocked map[string]bool // host:port
	next    http.RoundTripper
}

func (bt *blockingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	bt.mu.Lock()
	cut := bt.blocked[req.URL.Host]
	bt.mu.Unlock()
	if cut {
		return nil, fmt.Errorf("partitioned away from %s", req.URL.Host)
	}
	return bt.next.RoundTrip(req)
}

func (bt *blockingTransport) set(hosts []string, cut bool) {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	for _, h := range hosts {
		bt.blocked[h] = cut
	}
}

// peer is one replica-set member under test: a durable System, its
// election agent, and the webui server peers reach it through.
type peer struct {
	url   string
	host  string // listener host:port, reusable across restarts
	dir   string
	sys   *core.System
	agent *failover.Agent
	srv   *httptest.Server
	// transport is this peer's view of the network (outbound heartbeats,
	// votes, and WAL tails all go through it).
	transport *blockingTransport
}

type cluster struct {
	t    *testing.T
	urls []string

	mu      sync.Mutex
	peers   []*peer
	retired []*peer // replaced by restart; closed at cleanup
}

// startCluster listens on n loopback ports first — every agent needs
// the full membership before any peer starts — then boots each peer.
func startCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{t: t}
	listeners := make([]net.Listener, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		c.urls = append(c.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range listeners {
		c.peers = append(c.peers, c.bootPeer(c.urls[i], ln, t.TempDir()))
	}
	t.Cleanup(func() {
		// Stop under the lock: background readers poll peer liveness
		// through it until the moment they exit.
		c.mu.Lock()
		all := append(append([]*peer{}, c.peers...), c.retired...)
		for _, p := range all {
			p.stop()
		}
		c.mu.Unlock()
		for _, p := range all {
			p.sys.Close()
		}
	})
	return c
}

// bootPeer opens (or re-opens) the durable peer in dir and starts its
// agent and HTTP server on the given listener.
func (c *cluster) bootPeer(url string, ln net.Listener, dir string) *peer {
	c.t.Helper()
	opts := testOpts()
	opts.DataDir = dir
	opts.ReplicaSet = len(c.urls)
	opts.AckTimeout = 3 * time.Second
	sys, err := cqads.OpenPeer(opts)
	if err != nil {
		c.t.Fatal(err)
	}
	bt := &blockingTransport{blocked: map[string]bool{}, next: http.DefaultTransport}
	client := &http.Client{Transport: bt}
	agent, err := failover.New(failover.Config{
		Self:           url,
		Peers:          c.urls,
		Sys:            sys,
		Client:         client,
		HeartbeatEvery: testHeartbeat,
		LeaseTimeout:   testLease,
		Tail: replica.Config{
			Client:           client,
			PollWait:         2 * testHeartbeat,
			RetryInterval:    10 * time.Millisecond,
			MaxRetryInterval: testHeartbeat,
		},
	})
	if err != nil {
		c.t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(webui.NewServerWith(sys, webui.Options{Failover: agent}))
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	agent.Start()
	return &peer{
		url: url, host: ln.Addr().String(), dir: dir,
		sys: sys, agent: agent, srv: srv, transport: bt,
	}
}

// stop is a crash, not a shutdown: the HTTP server and agent die, the
// System is left un-checkpointed (its WAL is fsync'd per op, exactly
// what a SIGKILL leaves behind). The store handle stays open so
// concurrent readers finish safely; cleanup closes it.
func (p *peer) stop() {
	if p.srv == nil {
		return
	}
	p.srv.CloseClientConnections()
	p.srv.Close()
	p.srv = nil
	p.agent.Close()
}

// kill crashes the peer.
func (c *cluster) kill(p *peer) {
	c.t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	p.stop()
}

// restart reboots a killed peer on its original address with its
// original data directory — the rejoining node. The crashed peer's
// System object is retired, not closed: the directory has no lock, the
// old in-memory handle takes no further writes, and background readers
// may still be mid-query on it.
func (c *cluster) restart(p *peer) *peer {
	c.t.Helper()
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", p.host)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("rebinding %s: %v", p.host, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	np := c.bootPeer(p.url, ln, p.dir)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, q := range c.peers {
		if q == p {
			c.peers[i] = np
			c.retired = append(c.retired, p)
		}
	}
	return np
}

// live returns the peers whose servers are up.
func (c *cluster) live() []*peer {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*peer
	for _, p := range c.peers {
		if p.srv != nil {
			out = append(out, p)
		}
	}
	return out
}

// peerAt returns the current occupant of slot i and whether it is
// live, consistently under the cluster lock (restart swaps slots).
func (c *cluster) peerAt(i int) (*peer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.peers[i]
	return p, p.srv != nil
}

// waitLeader polls the live agents until exactly one leads and returns
// it.
func (c *cluster) waitLeader(exclude *peer) *peer {
	c.t.Helper()
	deadline := time.Now().Add(convergeIn)
	for time.Now().Before(deadline) {
		for _, p := range c.live() {
			if p == exclude {
				continue
			}
			if _, _, role := p.agent.Leader(); role == failover.RoleLeader {
				return p
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.t.Fatal("no leader elected")
	return nil
}

// waitConverged blocks until every live peer's applied cursor reaches
// the leader's log tip.
func (c *cluster) waitConverged(leader *peer) {
	c.t.Helper()
	deadline := time.Now().Add(convergeIn)
	for {
		target := leader.sys.Status().Persistence.Seq
		done := true
		for _, p := range c.live() {
			if p != leader && p.sys.AppliedSeq() < target {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			for _, p := range c.live() {
				c.t.Logf("%s: applied %d (leader tip %d)", p.url, p.sys.AppliedSeq(), target)
			}
			c.t.Fatal("replica set did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// mirrored ingests the same generated ads into the leader (at the
// given ack level) and the reference system, failing on any error, and
// returns the leader-assigned ids.
func mirrored(t *testing.T, leader, ref *core.System, domain string, seed int64, n int, ack core.AckLevel) []sqldb.RowID {
	t.Helper()
	gen := adsgen.NewGenerator(seed)
	var ids []sqldb.RowID
	for _, ad := range gen.Generate(schema.ByName(domain), n) {
		id, err := leader.InsertAdWithAck(domain, ad, ack)
		if err != nil {
			t.Fatalf("leader insert (%s): %v", domain, err)
		}
		rid, err := ref.InsertAd(domain, ad)
		if err != nil {
			t.Fatalf("reference insert: %v", err)
		}
		if id != rid {
			t.Fatalf("leader assigned id %d, reference %d — corpora diverged before the test began", id, rid)
		}
		ids = append(ids, id)
	}
	return ids
}

// reference opens the never-failed comparison system: an in-memory
// standalone with the same deterministic options.
func reference(t *testing.T) *core.System {
	t.Helper()
	ref, err := cqads.Open(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	return ref
}

// TestFailoverKillLeader is the acceptance harness: a 3-peer set
// elects a leader, takes quorum-acked writes, loses the leader to a
// crash, auto-promotes the freshest follower within the lease
// timeout, keeps every acked write, takes more quorum writes in the
// new term, and answers bit-identically to a system that never
// failed.
func TestFailoverKillLeader(t *testing.T) {
	checkGoroutines(t)
	c := startCluster(t, 3)
	ref := reference(t)

	leader := c.waitLeader(nil)
	mirrored(t, leader.sys, ref, "cars", 1001, 8, core.AckQuorum)
	mirrored(t, leader.sys, ref, "motorcycles", 1002, 5, core.AckQuorum)

	// Crash the leader. Every write above was quorum-acked, so a
	// majority of the survivors holds all of them, and the vote rule
	// (epoch, then sequence) forces the freshest survivor to win.
	electionsBefore := telemetry.Failover.Promotions.Load()
	c.kill(leader)
	start := time.Now()
	next := c.waitLeader(leader)
	t.Logf("new leader %s after %v", next.url, time.Since(start))
	if next == leader {
		t.Fatal("dead leader re-elected")
	}
	if got := telemetry.Failover.Promotions.Load(); got <= electionsBefore {
		t.Fatalf("promotions counter did not move (%d)", got)
	}
	if st := next.sys.Status().Replication; st.ReadOnly {
		t.Fatalf("new leader is read-only: %+v", st)
	}

	// No quorum-acked write may be lost: the new leader's log covers
	// them all, so its answers match the never-failed reference.
	shardtest.AssertSameAnswers(t, "new leader after crash", shardtest.SmokeQuestions, ref, next.sys)

	// The set still has 2 of 3 members — a majority — so quorum writes
	// keep working in the new term, and the surviving follower
	// converges bit-identically.
	mirrored(t, next.sys, ref, "cars", 2001, 4, core.AckQuorum)
	c.waitConverged(next)
	for _, p := range c.live() {
		shardtest.AssertSameAnswers(t, "survivor "+p.url, shardtest.SmokeQuestions, ref, p.sys)
	}

	// The HTTP leader view follows: every survivor's
	// GET /api/repl/leader names the new leader.
	deadline := time.Now().Add(convergeIn)
	for _, p := range c.live() {
		for {
			url, _, _ := p.agent.Leader()
			if url == next.url {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s still points at leader %q", p.url, url)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestPartitionFencing: a leader partitioned away from both followers
// keeps serving reads and ack=local writes (by design), fails
// ack=quorum writes, and on rejoining is fenced: its isolated writes
// are detected by log matching (409), dropped by the forced
// snapshot reset, and the node converges bit-identically to the new
// term's history.
func TestPartitionFencing(t *testing.T) {
	checkGoroutines(t)
	c := startCluster(t, 3)
	ref := reference(t)

	old := c.waitLeader(nil)
	mirrored(t, old.sys, ref, "cars", 3001, 6, core.AckQuorum)
	c.waitConverged(old)

	// Partition: the leader can reach nobody and nobody can reach it.
	var others []*peer
	var otherHosts []string
	for _, p := range c.peers {
		if p != old {
			others = append(others, p)
			otherHosts = append(otherHosts, p.host)
		}
	}
	old.transport.set(otherHosts, true)
	for _, p := range others {
		p.transport.set([]string{old.host}, true)
	}
	// The cut blocks new requests, but the followers' in-flight WAL
	// long polls predate it and their responses still arrive; drain
	// them so the write below is genuinely unreplicated.
	time.Sleep(4 * testHeartbeat)

	// The isolated leader still takes ack=local writes — availability
	// over consistency, the documented contract — but cannot gather a
	// quorum.
	gen := adsgen.NewGenerator(4004)
	divergent, err := old.sys.InsertAdWithAck("cars", gen.Generate(schema.Cars(), 1)[0], core.AckLocal)
	if err != nil {
		t.Fatalf("ack=local on isolated leader: %v", err)
	}
	if _, err := old.sys.InsertAdWithAck("cars", gen.Generate(schema.Cars(), 1)[0], core.AckQuorum); !errors.Is(err, core.ErrQuorumUnavailable) {
		t.Fatalf("ack=quorum on isolated leader = %v, want ErrQuorumUnavailable", err)
	}

	// The majority side elects a new leader at a higher term and moves
	// on.
	next := c.waitLeader(old)
	mirrored(t, next.sys, ref, "jewellery", 5005, 5, core.AckQuorum)

	// Heal. The old leader hears the higher term, steps down, and its
	// diverged log forces a fenced stream (409) and a snapshot reset.
	fencedBefore := telemetry.Failover.FencedStreams.Load()
	old.transport.set(otherHosts, false)
	for _, p := range others {
		p.transport.set([]string{old.host}, false)
	}
	c.waitConverged(next)

	if _, _, role := old.agent.Leader(); role == failover.RoleLeader {
		t.Fatal("old leader did not step down after the partition healed")
	}
	if got := telemetry.Failover.FencedStreams.Load(); got <= fencedBefore {
		t.Fatalf("fenced-streams counter did not move (%d): the diverged log was not detected", got)
	}
	// The isolated suffix is gone: the ad the old leader accepted at
	// ack=local during the partition was fenced away with it.
	tbl, ok := old.sys.DB().TableForDomain("cars")
	if !ok {
		t.Fatal("no cars table")
	}
	if _, ok := tbl.Get(divergent); ok {
		t.Fatalf("divergent ad %d survived the rejoin", divergent)
	}
	// And the rejoined node answers bit-identically to the reference
	// (which never saw the fenced write).
	shardtest.AssertSameAnswers(t, "rejoined old leader", shardtest.SmokeQuestions, ref, old.sys)
	if _, err := old.sys.InsertAd("cars", gen.Generate(schema.Cars(), 1)[0]); !errors.Is(err, core.ErrReadOnlyReplica) {
		t.Fatalf("rejoined old leader accepts writes: %v", err)
	}
}

// TestElectionUnderChurn kills the leader repeatedly while followers
// serve pooled Asks continuously, restarting each victim so it rejoins as
// a follower. After the churn the whole set converges bit-identically
// to the reference.
func TestElectionUnderChurn(t *testing.T) {
	checkGoroutines(t)
	c := startCluster(t, 3)
	ref := reference(t)

	// Background readers: every live peer answers questions throughout
	// the churn; a read error under failover is a test failure.
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	readErr := make(chan error, 1)
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				p, ok := c.peerAt(i)
				if !ok {
					time.Sleep(10 * time.Millisecond)
					continue
				}
				errs := pool.Map(shardtest.SmokeQuestions[:3], 3, func(_ int, q string) error {
					_, err := p.sys.Ask(q)
					return err
				})
				for _, err := range errs {
					if err != nil {
						select {
						case readErr <- fmt.Errorf("Ask on %s during churn: %w", p.url, err):
						default:
						}
						return
					}
				}
				// Continuous but not saturating: leave the election
				// loops cycles to meet their deadlines.
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}

	seed := int64(7007)
	for round := 0; round < 3; round++ {
		leader := c.waitLeader(nil)
		mirrored(t, leader.sys, ref, "cars", seed, 3, core.AckQuorum)
		seed++
		c.kill(leader)
		next := c.waitLeader(leader)
		if next.url == leader.url {
			t.Fatalf("round %d: dead leader %s re-elected", round, leader.url)
		}
		c.restart(leader)
	}

	final := c.waitLeader(nil)
	mirrored(t, final.sys, ref, "motorcycles", seed, 2, core.AckQuorum)
	c.waitConverged(final)
	close(stopReads)
	readers.Wait()
	select {
	case err := <-readErr:
		t.Fatal(err)
	default:
	}
	for _, p := range c.live() {
		shardtest.AssertSameAnswers(t, "post-churn "+p.url, shardtest.SmokeQuestions, ref, p.sys)
	}
}
