package shard_test

// Fault injection against the front tier: slow shards (deadline
// exceeded), shards answering 503 (the write-failed latch), shards
// mid-recovery, and a dead shard among live ones. Every test asserts
// typed *shard.RouteError envelopes for the failing domain and intact
// answers for the others, and every test finishes with a goleak-style
// goroutine-count check — the router promises to spawn nothing that
// outlives its calls.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/shard"
)

// checkGoroutines snapshots the goroutine count and returns a check
// to run after the test's servers and routers are closed: the count
// must return to the baseline (retrying briefly — http internals wind
// down asynchronously) or the test fails with a full stack dump.
// Register it FIRST via t.Cleanup so it runs after the other cleanups.
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

// tableClassifier routes by exact question text.
type tableClassifier map[string]string

func (c tableClassifier) ClassifyQuestion(q string) (string, error) {
	if d, ok := c[q]; ok {
		return d, nil
	}
	return "", fmt.Errorf("unclassifiable question %q", q)
}

// cannedResult is the minimal per-question answer object a fake shard
// returns.
func cannedResult(domain, q string) json.RawMessage {
	b, _ := json.Marshal(map[string]any{
		"domain": domain, "interpretation": q, "sql": "",
		"exact_count": 1, "answers": []any{map[string]any{"exact": true, "rank_sim": 1.0, "record": map[string]string{}}},
	})
	return b
}

// fakeShard serves the endpoints the router calls, answering
// canned results; hook overrides the whole handler when non-nil.
func fakeShard(t *testing.T, domain string, hook http.HandlerFunc) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hook != nil {
			hook(w, r)
			return
		}
		switch {
		case r.URL.Path == "/api/ask":
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(cannedResult(domain, r.URL.Query().Get("q")))
		case r.URL.Path == "/healthz":
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]string{"state": "serving"})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// single is the shard-map entry of a domain served whole by one node.
func single(base string) []shard.Group {
	return []shard.Group{{Members: []string{base}}}
}

// newRouter wires a Router over fake shards with a short upstream
// timeout, registering cleanups in leak-check-friendly order.
func newRouter(t *testing.T, m shard.Map, cls shard.Classifier, timeout time.Duration) *shard.Router {
	t.Helper()
	rt, err := shard.New(shard.Config{
		Map:        m,
		Classifier: cls,
		Client:     &http.Client{Timeout: timeout},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestRouterSlowShardDeadline: a shard that answers slower than the
// client timeout fails only its own questions, with a typed error;
// the fast shard keeps answering.
func TestRouterSlowShardDeadline(t *testing.T) {
	checkGoroutines(t)
	release := make(chan struct{})
	slow := fakeShard(t, "cars", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // client gave up
		case <-release: // test over; let the server close cleanly
		}
	})
	t.Cleanup(func() { close(release) })
	fast := fakeShard(t, "csjobs", nil)
	cls := tableClassifier{"q-cars": "cars", "q-jobs": "csjobs"}
	rt := newRouter(t, shard.Map{"cars": single(slow.URL), "csjobs": single(fast.URL)}, cls, 150*time.Millisecond)

	for i, q := range []string{"q-cars", "q-jobs", "q-cars", "q-jobs"} {
		p, err := rt.Ask(context.Background(), "", q)
		if q == "q-cars" { // the slow shard
			var re *shard.RouteError
			if !errors.As(err, &re) {
				t.Fatalf("slow-shard ask %d error = %v, want *RouteError", i, err)
			}
			if re.Domain != "cars" || re.Shard != slow.URL || re.Status != 0 {
				t.Errorf("slow-shard RouteError = %+v", re)
			}
			continue
		}
		if err != nil || p.Status != http.StatusOK || p.Body == nil {
			t.Errorf("fast-shard ask %d: err=%v", i, err)
		}
	}
}

// TestRouterShard503: a shard whose durability latch tripped answers
// 503. An unpartitioned domain proxies the shard's own response so the
// caller sees exactly what the shard said; a partitioned domain, which
// must merge every slice, reports it as a typed error carrying the
// status. Other domains are unaffected.
func TestRouterShard503(t *testing.T) {
	checkGoroutines(t)
	latched := fakeShard(t, "cars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "durability lost"})
	})
	healthy := fakeShard(t, "csjobs", nil)
	cls := tableClassifier{"q-cars": "cars", "q-jobs": "csjobs"}
	rt := newRouter(t, shard.Map{"cars": single(latched.URL), "csjobs": single(healthy.URL)}, cls, time.Second)

	if p, err := rt.Ask(context.Background(), "", "q-jobs"); err != nil || p.Status != http.StatusOK {
		t.Fatalf("healthy ask failed: %v", err)
	}
	p, err := rt.Ask(context.Background(), "", "q-cars")
	if err != nil {
		t.Fatalf("Ask should proxy the shard's 503, got error %v", err)
	}
	if p.Status != http.StatusServiceUnavailable {
		t.Fatalf("proxied status = %d", p.Status)
	}

	m, err := shard.ParseMap("cars=h0:" + latched.URL + ",h1:" + healthy.URL)
	if err != nil {
		t.Fatal(err)
	}
	split, err := shard.New(shard.Config{Map: m, Classifier: cls, Client: &http.Client{Timeout: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(split.Close)
	_, err = split.Ask(context.Background(), "", "q-cars")
	var re *shard.RouteError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable || re.Shard != latched.URL {
		t.Fatalf("latched partition error = %v, want RouteError with 503 from %s", err, latched.URL)
	}
}

// TestRouterShardRecovering: a shard mid-reset reports
// "recovering" on /healthz; the cluster rollup degrades without going
// down, and the per-shard state is visible in the front tier's probe.
func TestRouterShardRecovering(t *testing.T) {
	checkGoroutines(t)
	recovering := fakeShard(t, "cars", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"state": "recovering"})
			return
		}
		http.NotFound(w, r)
	})
	healthy := fakeShard(t, "csjobs", nil)
	rt := newRouter(t, shard.Map{"cars": single(recovering.URL), "csjobs": single(healthy.URL)}, nil, time.Second)
	front := httptest.NewServer(shard.NewServer(rt))
	t.Cleanup(front.Close)

	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		State  string `json:"state"`
		Shards []struct {
			URL   string `json:"url"`
			State string `json:"state"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health.State != "degraded" {
		t.Fatalf("cluster health = %d %q, want 200 degraded", resp.StatusCode, health.State)
	}
	states := map[string]string{}
	for _, sh := range health.Shards {
		states[sh.URL] = sh.State
	}
	if states[recovering.URL] != "recovering" || states[healthy.URL] != "serving" {
		t.Fatalf("per-shard states = %v", states)
	}
	// This router has no classifier: a domain-less question must fail
	// with the typed error as documented — never broadcast.
	if _, err := rt.Ask(context.Background(), "", "anything"); err == nil {
		t.Fatal("classifier-less router answered a domain-less question")
	} else {
		var re *shard.RouteError
		if !errors.As(err, &re) {
			t.Fatalf("classifier-less error = %v, want *RouteError", err)
		}
	}
}

// TestRouterPartialBatchFailure: one shard is plain dead (connection
// refused). Its questions degrade with typed errors and every other
// domain's questions, interleaved with them, still answer.
func TestRouterPartialBatchFailure(t *testing.T) {
	checkGoroutines(t)
	dead := fakeShard(t, "cars", nil)
	deadURL := dead.URL
	dead.Close()
	okA := fakeShard(t, "csjobs", nil)
	okB := fakeShard(t, "jewellery", nil)
	cls := tableClassifier{"q-cars": "cars", "q-jobs": "csjobs", "q-gold": "jewellery"}
	rt := newRouter(t, shard.Map{
		"cars": single(deadURL), "csjobs": single(okA.URL), "jewellery": single(okB.URL),
	}, cls, time.Second)

	for i, q := range []string{"q-jobs", "q-cars", "q-gold", "q-cars", "q-jobs"} {
		p, err := rt.Ask(context.Background(), "", q)
		if q == "q-cars" {
			var re *shard.RouteError
			if !errors.As(err, &re) || re.Domain != "cars" {
				t.Errorf("dead-shard ask %d error = %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("healthy ask %d failed: %v", i, err)
			continue
		}
		var res struct {
			Domain string `json:"domain"`
		}
		if err := json.Unmarshal(p.Body, &res); err != nil || res.Domain != cls[q] {
			t.Errorf("ask %d answered domain %q, want %q", i, res.Domain, cls[q])
		}
	}
	// An unknown domain is typed ErrNoShard, not a transport error.
	if _, err := rt.Ask(context.Background(), "boats", "any"); !errors.Is(err, shard.ErrNoShard) {
		t.Fatalf("unknown-domain error = %v, want ErrNoShard", err)
	}
}

// TestRouterBroadcastFallback: a question the classifier cannot place
// is broadcast to every hosted domain and the best answer wins —
// never an error while any shard answers.
func TestRouterBroadcastFallback(t *testing.T) {
	checkGoroutines(t)
	a := fakeShard(t, "cars", nil)
	// csjobs answers with more exact matches, so it must win the merge.
	b := fakeShard(t, "csjobs", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/ask" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"domain":"csjobs","exact_count":5,"answers":[{},{},{},{},{}]}`))
	})
	cls := tableClassifier{} // classifies nothing
	rt := newRouter(t, shard.Map{"cars": single(a.URL), "csjobs": single(b.URL)}, cls, time.Second)

	for _, q := range []string{"complete gibberish", "gibberish one", "gibberish two"} {
		p, err := rt.Ask(context.Background(), "", q)
		if err != nil {
			t.Fatalf("%q: broadcast fallback errored: %v", q, err)
		}
		var res struct {
			Domain string `json:"domain"`
		}
		if err := json.Unmarshal(p.Body, &res); err != nil || res.Domain != "csjobs" {
			t.Fatalf("%q: broadcast winner = %s", q, p.Body)
		}
	}
}
