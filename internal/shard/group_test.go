package shard_test

// Replica-set groups in the shard map and the router's
// leader-following behavior: parse the "|" group syntax, resolve a
// group's leader lazily through /api/repl/leader, cache it, and on a
// stale-leader failure (403 read-only, or the node gone) invalidate
// and follow the new leader — while single-member groups keep the old
// static routing and never probe.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failover"
	"repro/internal/partition"
	"repro/internal/shard"
)

func TestParseMapGroups(t *testing.T) {
	h := func(index, count uint32) partition.Slice { return partition.Slice{Index: index, Count: count} }
	good := []struct {
		in   string
		want shard.Map
	}{
		{"cars=http://a:1|http://b:1|http://c:1",
			shard.Map{"cars": {{Members: []string{"http://a:1", "http://b:1", "http://c:1"}}}}},
		{"cars=http://a:1/|http://b:1, csjobs=http://b:1",
			shard.Map{"cars": {{Members: []string{"http://a:1", "http://b:1"}}},
				"csjobs": {{Members: []string{"http://b:1"}}}}},
		{"cars=http://a:1|http://b:1,motorcycles=http://a:1|http://b:1",
			shard.Map{"cars": {{Members: []string{"http://a:1", "http://b:1"}}},
				"motorcycles": {{Members: []string{"http://a:1", "http://b:1"}}}}},
		{"cars=h0:http://a:1,h1:http://b:1",
			shard.Map{"cars": {
				{Slice: h(0, 2), Members: []string{"http://a:1"}},
				{Slice: h(1, 2), Members: []string{"http://b:1"}}}}},
		// Slots may arrive in any order; groups come back sorted by index.
		{"cars=h1:http://b:1,h0:http://a:1",
			shard.Map{"cars": {
				{Slice: h(0, 2), Members: []string{"http://a:1"}},
				{Slice: h(1, 2), Members: []string{"http://b:1"}}}}},
		// Hash groups compose with replica sets, and a hash-partitioned
		// domain coexists with plain ones.
		{"cars=h0:http://a:1|http://b:1,h1:http://c:1|http://d:1,csjobs=http://e:1",
			shard.Map{"cars": {
				{Slice: h(0, 2), Members: []string{"http://a:1", "http://b:1"}},
				{Slice: h(1, 2), Members: []string{"http://c:1", "http://d:1"}}},
				"csjobs": {{Members: []string{"http://e:1"}}}}},
		// A lone h0 slot is a 1-way partition: the whole hash space.
		{"cars=h0:http://a:1",
			shard.Map{"cars": {{Slice: h(0, 1), Members: []string{"http://a:1"}}}}},
		{"cars=h0:http://a:1,h1:http://b:1,h2:http://c:1,h3:http://d:1",
			shard.Map{"cars": {
				{Slice: h(0, 4), Members: []string{"http://a:1"}},
				{Slice: h(1, 4), Members: []string{"http://b:1"}},
				{Slice: h(2, 4), Members: []string{"http://c:1"}},
				{Slice: h(3, 4), Members: []string{"http://d:1"}}}}},
	}
	for _, tc := range good {
		m, err := shard.ParseMap(tc.in)
		if err != nil {
			t.Errorf("ParseMap(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(m, tc.want) {
			t.Errorf("ParseMap(%q) = %v, want %v", tc.in, m, tc.want)
		}
	}
	bad := []string{
		"cars=http://a:1|",                                 // empty member
		"cars=|http://a:1",                                 // empty member, leading
		"cars=http://a:1|http://a:1",                       // duplicate member in a group
		"cars=http://a:1|ftp://b:1",                        // non-http member
		"cars=h0:http://a:1,h2:http://b:1",                 // gap: {0,2} is not a permutation
		"cars=h0:http://a:1,h0:http://b:1",                 // duplicate slot
		"cars=h0:http://a:1,h1:http://b:1,h2:http://c:1",   // three slots: not a power of two
		"cars=hx:http://a:1,h1:http://b:1",                 // malformed slot
		"h0:http://a:1",                                    // continuation with no domain
		"csjobs=http://e:1,h1:http://b:1",                  // continuation after a plain domain
		"cars=h0:http://a:1,h1:http://b:1,cars=http://c:1", // domain re-mapped
	}
	for _, in := range bad {
		if _, err := shard.ParseMap(in); err == nil {
			t.Errorf("ParseMap(%q) accepted", in)
		}
	}
}

// member is a fake replica-set node: it reports a mutable leader view
// on /api/repl/leader, answers asks with its own name in the
// interpretation field (so tests can tell who served), and accepts
// writes only while leading (403 read-only otherwise).
type member struct {
	name string
	srv  *httptest.Server

	mu       sync.Mutex
	view     failover.LeaderView
	askDelay time.Duration // artificial /api/ask latency (hedge tests)
	probes   atomic.Int64
}

func newMember(t *testing.T, name string) *member {
	t.Helper()
	m := &member{name: name}
	m.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/repl/leader":
			m.probes.Add(1)
			m.mu.Lock()
			view := m.view
			m.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(view)
		case "/api/ask":
			m.mu.Lock()
			delay := m.askDelay
			m.mu.Unlock()
			if delay > 0 {
				select {
				case <-time.After(delay):
				case <-r.Context().Done():
					return // a cancelled hedge loser stops serving
				}
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(cannedResult(r.URL.Query().Get("domain"), m.name))
		case "/api/ads":
			m.mu.Lock()
			leads := m.view.Role == failover.RoleLeader
			m.mu.Unlock()
			if !leads {
				http.Error(w, `{"error":"read-only replica"}`, http.StatusForbidden)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusCreated)
			_ = json.NewEncoder(w).Encode(map[string]any{"domain": "cars", "id": 1, "served_by": m.name})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(m.srv.Close)
	return m
}

// lead flips this member to leader at epoch e; follow makes it a
// read-only follower vouching for leaderURL.
func (m *member) lead(e uint64) {
	m.mu.Lock()
	m.view = failover.LeaderView{LeaderURL: m.srv.URL, Epoch: e, Role: failover.RoleLeader}
	m.mu.Unlock()
}

func (m *member) follow(leaderURL string, e uint64) {
	m.mu.Lock()
	m.view = failover.LeaderView{LeaderURL: leaderURL, Epoch: e, Role: failover.RoleFollower}
	m.mu.Unlock()
}

// slow makes every subsequent /api/ask on this member take at least d.
func (m *member) slow(d time.Duration) {
	m.mu.Lock()
	m.askDelay = d
	m.mu.Unlock()
}

// servedBy extracts the member name a fake ask answer was served by.
func servedBy(t *testing.T, body []byte) string {
	t.Helper()
	var resp struct {
		Interpretation string `json:"interpretation"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding ask body %q: %v", body, err)
	}
	return resp.Interpretation
}

func TestRouterFollowsGroupLeader(t *testing.T) {
	checkGoroutines(t)
	a := newMember(t, "node-a")
	b := newMember(t, "node-b")
	a.lead(1)
	b.follow(a.srv.URL, 1)

	rt, err := shard.New(shard.Config{
		Map:        shard.Map{"cars": {{Members: []string{a.srv.URL, b.srv.URL}}}},
		Client:     &http.Client{Timeout: 2 * time.Second},
		Classifier: tableClassifier{"q": "cars"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx := context.Background()

	if owner, ok := rt.Owner("cars"); !ok || owner != a.srv.URL+"|"+b.srv.URL {
		t.Fatalf("Owner = %q, %v", owner, ok)
	}

	// First ask resolves the leader; the second rides the cache.
	for i := 0; i < 2; i++ {
		p, err := rt.Ask(ctx, "cars", "q")
		if err != nil {
			t.Fatal(err)
		}
		if got := servedBy(t, p.Body); got != "node-a" {
			t.Fatalf("ask %d served by %q, want node-a", i, got)
		}
	}
	if probes := a.probes.Load() + b.probes.Load(); probes > 2 {
		t.Fatalf("leader cached after first resolve, yet %d probes", probes)
	}

	// Election: a is deposed but alive. The stale cached leader refuses
	// the write read-only; the router invalidates, re-resolves, and the
	// retry lands on the new leader.
	b.lead(2)
	a.follow(b.srv.URL, 2)
	p, err := rt.ForwardAd(ctx, "cars", []byte(`{"domain":"cars","record":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != http.StatusCreated {
		t.Fatalf("write after election = %d: %s", p.Status, p.Body)
	}
	var ad struct {
		ServedBy string `json:"served_by"`
	}
	if err := json.Unmarshal(p.Body, &ad); err != nil || ad.ServedBy != "node-b" {
		t.Fatalf("write served by %q (%v), want node-b", ad.ServedBy, err)
	}

	// The retarget sticks: reads now hit the new cached leader too.
	if p, err := rt.Ask(ctx, "cars", "q"); err != nil || servedBy(t, p.Body) != "node-b" {
		t.Fatalf("ask after election served by wrong node: %v", err)
	}

	// Crash failover: the cached leader dies outright, the survivor
	// retakes the lead, and one ask rides the invalidate-and-retry.
	b.srv.Close()
	a.lead(3)
	p, err = rt.Ask(ctx, "cars", "q")
	if err != nil {
		t.Fatal(err)
	}
	if got := servedBy(t, p.Body); got != "node-a" {
		t.Fatalf("ask after crash served by %q, want node-a", got)
	}
}

func TestRouterStaticGroupNeverProbes(t *testing.T) {
	checkGoroutines(t)
	// A single-member group behaves exactly like the pre-replica-set
	// static map: no leader probes, no retry.
	a := newMember(t, "solo")
	rt, err := shard.New(shard.Config{
		Map:    shard.Map{"cars": {{Members: []string{a.srv.URL}}}},
		Client: &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	if _, err := rt.Ask(context.Background(), "cars", "q"); err != nil {
		t.Fatal(err)
	}
	if n := a.probes.Load(); n != 0 {
		t.Fatalf("static group probed the leader endpoint %d times", n)
	}
	// A write refusal surfaces as-is instead of retrying elsewhere —
	// there is nowhere else.
	a.follow("", 1)
	p, err := rt.ForwardAd(context.Background(), "cars", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != http.StatusForbidden {
		t.Fatalf("static refused write = %d, want 403 passthrough", p.Status)
	}
}

func TestRouterGroupNoLeaderReachable(t *testing.T) {
	checkGoroutines(t)
	a := newMember(t, "a")
	b := newMember(t, "b")
	// Both members are candidates mid-election: nobody leads, no hints.
	a.mu.Lock()
	a.view = failover.LeaderView{Epoch: 2, Role: failover.RoleCandidate}
	a.mu.Unlock()
	b.mu.Lock()
	b.view = failover.LeaderView{Epoch: 2, Role: failover.RoleCandidate}
	b.mu.Unlock()

	rt, err := shard.New(shard.Config{
		Map:    shard.Map{"cars": {{Members: []string{a.srv.URL, b.srv.URL}}}},
		Client: &http.Client{Timeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	_, err = rt.Ask(context.Background(), "cars", "q")
	var rerr *shard.RouteError
	if !errors.As(err, &rerr) || rerr.Domain != "cars" {
		t.Fatalf("mid-election ask error = %v, want *RouteError for cars", err)
	}
}
