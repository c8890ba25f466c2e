package replica_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/cqads"
	"repro/internal/adsgen"
	"repro/internal/core"
	"repro/internal/metrics/telemetry"
	"repro/internal/pool"
	"repro/internal/replica"
	"repro/internal/schema"
	"repro/internal/sqldb"
	"repro/internal/webui"
)

// checkGoroutines records the goroutine count and fails the test if it
// has not returned to that level shortly after all other cleanups ran
// — follower poll loops and httptest servers must actually stop.
// Register it FIRST via t.Cleanup so it runs last.
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

// testOpts is the shared deterministic environment. The follower MUST
// build with the same options as the primary (minus DataDir): the
// snapshot carries table contents and classifier state, while TI/WS
// matrices are rebuilt from the seed.
func testOpts() cqads.Options {
	return cqads.Options{Seed: 7, AdsPerDomain: 90, TrainOnIngest: true, Dedup: true}
}

// startPrimary opens a durable primary and serves its webui over an
// httptest server.
func startPrimary(t *testing.T, compactBytes int64) (*core.System, *httptest.Server) {
	t.Helper()
	opts := testOpts()
	opts.DataDir = t.TempDir()
	opts.CompactBytes = compactBytes
	sys, err := cqads.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv := httptest.NewServer(webui.NewServer(sys))
	t.Cleanup(srv.Close)
	return sys, srv
}

// followerConfig wires a follower at the test's poll cadence.
func followerConfig(primaryURL string) replica.Config {
	return replica.Config{
		Primary: primaryURL,
		Bootstrap: func(snapshot []byte) (*core.System, error) {
			return cqads.OpenFollower(testOpts(), snapshot)
		},
		PollWait:      50 * time.Millisecond,
		RetryInterval: 20 * time.Millisecond,
	}
}

// waitConverged blocks until the follower has applied through the
// primary's current sequence.
func waitConverged(t *testing.T, primary, follower *core.System) {
	t.Helper()
	target := primary.Status().Persistence.Seq
	deadline := time.Now().Add(15 * time.Second)
	for follower.AppliedSeq() < target {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, primary at %d", follower.AppliedSeq(), target)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replicaQuestions exercises exact matches, superlatives, relaxation,
// OR groups and classification.
var replicaQuestions = []string{
	"Find Honda Accord blue less than 15,000 dollars",
	"cheapest honda",
	"blue car",
	"red or blue toyota under $9000",
	"gold necklace diamond",
}

// assertConvergedAnswers requires bit-identical Ask results between
// primary and follower.
func assertConvergedAnswers(t *testing.T, label string, primary, follower *core.System) {
	t.Helper()
	check := func(q string, p, f *core.Result, err1, err2 error) {
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %q: primary err %v, follower err %v", label, q, err1, err2)
		}
		if p.Domain != f.Domain || p.ExactCount != f.ExactCount || len(p.Answers) != len(f.Answers) {
			t.Fatalf("%s: %q: primary %s %d/%d, follower %s %d/%d", label, q,
				p.Domain, p.ExactCount, len(p.Answers), f.Domain, f.ExactCount, len(f.Answers))
		}
		for i := range p.Answers {
			x, y := p.Answers[i], f.Answers[i]
			if x.ID != y.ID || x.Exact != y.Exact || x.RankSim != y.RankSim || x.SimilarityUsed != y.SimilarityUsed {
				t.Fatalf("%s: %q: answer %d differs: primary {id %d sim %v %q}, follower {id %d sim %v %q}",
					label, q, i, x.ID, x.RankSim, x.SimilarityUsed, y.ID, y.RankSim, y.SimilarityUsed)
			}
		}
	}
	for _, q := range replicaQuestions {
		p, err1 := primary.Ask(q)
		f, err2 := follower.Ask(q)
		check(q, p, f, err1, err2)
	}
}

// ingestSome drives a mixed durable workload on the primary.
func ingestSome(t *testing.T, sys *core.System, seed int64, n int) []sqldb.RowID {
	t.Helper()
	gen := adsgen.NewGenerator(seed)
	var ids []sqldb.RowID
	for _, ad := range gen.Generate(schema.Cars(), n) {
		id, err := sys.InsertAd("cars", ad)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, ad := range gen.Generate(schema.Motorcycles(), n/2+1) {
		if _, err := sys.InsertAd("motorcycles", ad); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.DeleteAd("cars", ids[0]); err != nil {
		t.Fatal(err)
	}
	return ids[1:]
}

// TestFollowerEndToEnd is the tentpole acceptance test: a follower
// bootstrapped over HTTP from a live primary's snapshot converges with
// its WAL stream while both serve pooled Asks, answers bit-identically,
// and flips writable on promote.
func TestFollowerEndToEnd(t *testing.T) {
	checkGoroutines(t)
	primary, srv := startPrimary(t, -1)
	ingestSome(t, primary, 1001, 8) // pre-bootstrap history in the WAL

	f, err := replica.StartFollower(context.Background(), followerConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	follower := f.System()
	if st := follower.Status().Replication; st.Role != core.RoleFollower || !st.ReadOnly {
		t.Fatalf("follower status = %+v", st)
	}

	// Ingest while the tail loop runs and the follower serves reads.
	stop := make(chan struct{})
	readsDone := make(chan struct{})
	go func() {
		defer close(readsDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			errs := pool.Map(replicaQuestions[:3], 3, func(_ int, q string) error {
				_, err := follower.Ask(q)
				return err
			})
			for _, err := range errs {
				if err != nil {
					t.Errorf("follower Ask during stream: %v", err)
					return
				}
			}
		}
	}()
	ingestSome(t, primary, 2002, 12)
	waitConverged(t, primary, follower)
	close(stop)
	<-readsDone
	if err := f.Err(); err != nil {
		t.Fatalf("follower loop error: %v", err)
	}
	assertConvergedAnswers(t, "end-to-end", primary, follower)

	// Read-only until promoted.
	gen := adsgen.NewGenerator(5)
	if _, err := follower.InsertAd("cars", gen.Generate(schema.Cars(), 1)[0]); !errors.Is(err, core.ErrReadOnlyReplica) {
		t.Fatalf("InsertAd on follower: %v, want ErrReadOnlyReplica", err)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.InsertAd("cars", gen.Generate(schema.Cars(), 1)[0]); err != nil {
		t.Fatalf("InsertAd after promote: %v", err)
	}
	if st := follower.Status().Replication; st.Role != core.RolePromoted {
		t.Fatalf("promoted role = %q", st.Role)
	}
}

// TestFollowerCatchUpAcrossCompaction: the follower stalls, the
// primary ingests and compacts past its cursor, and the next sync
// detects the gap (410), re-bootstraps from the new snapshot, and
// converges to bit-identical answers.
func TestFollowerCatchUpAcrossCompaction(t *testing.T) {
	checkGoroutines(t)
	primary, srv := startPrimary(t, -1) // manual compaction only
	f, err := replica.Connect(context.Background(), followerConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	follower := f.System()
	ctx := context.Background()

	// Round 1: normal streaming.
	ingestSome(t, primary, 3003, 6)
	if _, err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	waitConvergedNow(t, primary, follower)

	// The follower stalls while the primary moves on AND compacts: the
	// WAL range the follower needs is discarded.
	stalledAt := follower.AppliedSeq()
	ingestSome(t, primary, 4004, 9)
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingestSome(t, primary, 5005, 5) // post-compaction tail
	if ckpt := primary.Status().Persistence.CheckpointSeq; stalledAt >= ckpt {
		t.Fatalf("test setup: follower cursor %d not behind checkpoint %d", stalledAt, ckpt)
	}

	// Next sync hits 410 and re-bootstraps in place.
	fetchedBefore := telemetry.Repl.SnapshotsFetched.Load()
	if _, err := f.SyncOnce(ctx); err != nil {
		t.Fatalf("gap sync: %v", err)
	}
	if got := telemetry.Repl.SnapshotsFetched.Load(); got != fetchedBefore+1 {
		t.Fatalf("snapshot transfers = %d, want %d (re-bootstrap)", got, fetchedBefore+1)
	}
	if ckpt := primary.Status().Persistence.CheckpointSeq; follower.AppliedSeq() < ckpt {
		t.Fatalf("re-bootstrapped cursor %d still behind checkpoint %d", follower.AppliedSeq(), ckpt)
	}
	// And the following sync tails the post-compaction WAL to the tip.
	if _, err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	waitConvergedNow(t, primary, follower)
	assertConvergedAnswers(t, "post-compaction", primary, follower)
	if lag := follower.Status().Replication.LagOps; lag != 0 {
		t.Fatalf("converged follower reports lag %d", lag)
	}
}

// waitConvergedNow asserts convergence without polling: the callers
// just drained the stream synchronously.
func waitConvergedNow(t *testing.T, primary, follower *core.System) {
	t.Helper()
	want := primary.Status().Persistence.Seq
	if got := follower.AppliedSeq(); got != want {
		t.Fatalf("follower applied through %d, primary at %d", got, want)
	}
}

// TestFollowerSurvivesPrimaryRestart: a killed-and-recovered primary
// resumes serving the same stream (sequence numbers survive recovery),
// and the follower keeps converging without a re-bootstrap.
func TestFollowerSurvivesPrimaryOutage(t *testing.T) {
	checkGoroutines(t)
	opts := testOpts()
	opts.DataDir = t.TempDir()
	opts.CompactBytes = -1
	primary, err := cqads.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	handler := webui.NewServer(primary)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	f, err := replica.Connect(context.Background(), followerConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	follower := f.System()
	ingestSome(t, primary, 6006, 5)
	if _, err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// "Kill" the primary (no graceful close; the WAL is fsync'd per
	// call) and recover it into the same data directory; the follower
	// keeps polling the same address.
	srv.Close()
	recovered, err := cqads.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	srv2 := httptest.NewServer(webui.NewServer(recovered))
	defer srv2.Close()
	f.SetPrimary(srv2.URL) // the follower was pointed at a fixed URL; re-point

	ingestSome(t, recovered, 7007, 4)
	for i := 0; i < 3; i++ {
		if _, err := f.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	waitConvergedNow(t, recovered, follower)
	assertConvergedAnswers(t, "post-outage", recovered, follower)
}
