package shard_test

// Front-tier hedged reads: a slow group member is raced against
// another member after the group's hedge delay, and a member that dies
// outright is hedged immediately — the ask succeeds where the old
// invalidate-and-retry would have degraded to an error, because the
// surviving follower can serve reads even while it still vouches for
// the dead leader.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/metrics/telemetry"
	"repro/internal/shard"
)

// hedgeCounters snapshots the process-wide hedge telemetry so tests
// sharing the process can assert on deltas.
func hedgeCounters() (hedges, wins int64) {
	return telemetry.Front.Hedges.Load(), telemetry.Front.HedgeWins.Load()
}

func TestRouterHedgesSlowMember(t *testing.T) {
	checkGoroutines(t)
	a := newMember(t, "node-a")
	b := newMember(t, "node-b")
	a.lead(1)
	b.follow(a.srv.URL, 1)
	a.slow(2 * time.Second) // far beyond the cold hedge delay

	rt, err := shard.New(shard.Config{
		Map:    shard.Map{"cars": {{Members: []string{a.srv.URL, b.srv.URL}}}},
		Client: &http.Client{Timeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	hedgesBefore, winsBefore := hedgeCounters()

	p, err := rt.Ask(context.Background(), "cars", "q")
	if err != nil {
		t.Fatal(err)
	}
	if got := servedBy(t, p.Body); got != "node-b" {
		t.Fatalf("slow leader's ask served by %q, want the node-b hedge", got)
	}
	hedges, wins := hedgeCounters()
	if hedges-hedgesBefore < 1 {
		t.Fatal("no hedge was counted for the slow read")
	}
	if wins-winsBefore < 1 {
		t.Fatal("the backup served the answer yet no hedge win was counted")
	}

	// The served read is in the group's latency profile.
	views := rt.GroupLatencies()
	if len(views) != 1 {
		t.Fatalf("GroupLatencies returned %d groups, want 1", len(views))
	}
	if views[0].Group != a.srv.URL+"|"+b.srv.URL || views[0].Count < 1 {
		t.Fatalf("group profile = %+v, want the cars group with ≥1 read", views[0])
	}
}

func TestRouterHedgeAbsorbsMemberRestart(t *testing.T) {
	checkGoroutines(t)
	a := newMember(t, "node-a")
	b := newMember(t, "node-b")
	a.lead(1)
	b.follow(a.srv.URL, 1)

	rt, err := shard.New(shard.Config{
		Map:    shard.Map{"cars": {{Members: []string{a.srv.URL, b.srv.URL}}}},
		Client: &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx := context.Background()

	// Warm the leader cache on node-a.
	if p, err := rt.Ask(ctx, "cars", "q"); err != nil || servedBy(t, p.Body) != "node-a" {
		t.Fatalf("warmup ask failed: %v", err)
	}

	// node-a restarts. node-b still vouches for it, so the old
	// invalidate-and-retry would re-resolve the dead leader and give
	// up; the hedge serves the read from node-b instead.
	a.srv.Close()
	_, winsBefore := hedgeCounters()
	p, err := rt.Ask(ctx, "cars", "q")
	if err != nil {
		t.Fatalf("ask during member restart degraded to an error: %v", err)
	}
	if got := servedBy(t, p.Body); got != "node-b" {
		t.Fatalf("restart ask served by %q, want node-b", got)
	}
	if _, wins := hedgeCounters(); wins-winsBefore < 1 {
		t.Fatal("restart was absorbed without counting a hedge win")
	}
}

func TestFrontStatusReportsHedges(t *testing.T) {
	checkGoroutines(t)
	a := newMember(t, "node-a")
	a.lead(1)
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

	front := httptest.NewServer(shard.NewServer(rt))
	t.Cleanup(front.Close)
	resp, err := http.Get(front.URL + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Front struct {
			Hedges    int64                    `json:"hedges"`
			HedgeWins int64                    `json:"hedge_wins"`
			Groups    []shard.GroupLatencyView `json:"groups"`
		} `json:"front"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.Front.Groups) != 1 {
		t.Fatalf("front status reported %d groups, want 1", len(status.Front.Groups))
	}
	g := status.Front.Groups[0]
	if g.Group != a.srv.URL || g.Count < 1 || g.HedgeDelayMs <= 0 {
		t.Fatalf("front group block = %+v, want the solo group with ≥1 read and a positive hedge delay", g)
	}
}
