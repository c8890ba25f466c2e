package replica_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/cqads"
	"repro/internal/adsgen"
	"repro/internal/core"
	"repro/internal/metrics/telemetry"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/replica"
	"repro/internal/schema"
	"repro/internal/shard/shardtest"
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
// seeded baseline and the TI/WS matrices are rebuilt from the seed,
// and only a snapshot transfer carries table contents and classifier
// state.
func testOpts() cqads.Options {
	return cqads.Options{Seed: 7, AdsPerDomain: 90, TrainOnIngest: true, Dedup: true}
}

// startPrimary opens a durable primary over opts and serves its webui
// over an httptest server. snapshots counts the snapshot transfers
// the server has answered.
func startPrimary(t *testing.T, opts cqads.Options, compactBytes int64) (sys *core.System, srv *httptest.Server, snapshots *atomic.Int64) {
	t.Helper()
	opts.DataDir = t.TempDir()
	opts.CompactBytes = compactBytes
	sys, err := cqads.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	snapshots = new(atomic.Int64)
	h := webui.NewServer(sys)
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/repl/snapshot" {
			snapshots.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return sys, srv, snapshots
}

// syncAll steps f until it has applied through the primary's current
// sequence.
func syncAll(t *testing.T, primary *core.System, f *replica.Follower) {
	t.Helper()
	for i := 0; f.System().AppliedSeq() < primary.AppliedSeq(); i++ {
		if i == 100 {
			t.Fatalf("follower stuck at seq %d, primary at %d", f.System().AppliedSeq(), primary.AppliedSeq())
		}
		if _, err := f.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
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

// TestFollowerEndToEnd is the tentpole acceptance test: a durable
// follower on a fresh directory takes one snapshot transfer and then
// streams a live primary's WAL while both serve pooled Asks, answers
// bit-identically, and flips writable on promote.
func TestFollowerEndToEnd(t *testing.T) {
	checkGoroutines(t)
	primary, srv, _ := startPrimary(t, testOpts(), -1)
	ingestSome(t, primary, 1001, 8) // history in the WAL before the follower starts

	fl := shardtest.StartFollower(t, testOpts(), srv.URL)
	f := fl.Tail
	f.Start()
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
			errs := pool.Map(shardtest.SmokeQuestions[:3], 3, func(_ int, q string) error {
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
	shardtest.AssertSameAnswers(t, "end-to-end", shardtest.SmokeQuestions, primary, follower)

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
// detects the gap (410), resets from the new snapshot, and converges
// to bit-identical answers.
func TestFollowerCatchUpAcrossCompaction(t *testing.T) {
	checkGoroutines(t)
	primary, srv, _ := startPrimary(t, testOpts(), -1) // manual compaction only
	f := shardtest.StartFollower(t, testOpts(), srv.URL).Tail
	follower := f.System()
	ctx := context.Background()

	// Round 1: the baseline transfer, then normal streaming.
	ingestSome(t, primary, 3003, 6)
	syncAll(t, primary, f)
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

	// Next sync hits 410 and resets in place.
	fetchedBefore := telemetry.Repl.SnapshotsFetched.Load()
	if _, err := f.SyncOnce(ctx); err != nil {
		t.Fatalf("gap sync: %v", err)
	}
	if got := telemetry.Repl.SnapshotsFetched.Load(); got != fetchedBefore+1 {
		t.Fatalf("snapshot transfers = %d, want %d (reset)", got, fetchedBefore+1)
	}
	if ckpt := primary.Status().Persistence.CheckpointSeq; follower.AppliedSeq() < ckpt {
		t.Fatalf("reset cursor %d still behind checkpoint %d", follower.AppliedSeq(), ckpt)
	}
	// And the following sync tails the post-compaction WAL to the tip.
	if _, err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	waitConvergedNow(t, primary, follower)
	shardtest.AssertSameAnswers(t, "post-compaction", shardtest.SmokeQuestions, primary, follower)
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

// TestFollowerSurvivesPrimaryOutage: a killed-and-recovered primary
// resumes serving the same stream (sequence numbers survive recovery),
// and the follower keeps converging without a snapshot transfer.
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

	f := shardtest.StartFollower(t, testOpts(), srv.URL).Tail
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
	shardtest.AssertSameAnswers(t, "post-outage", shardtest.SmokeQuestions, recovered, follower)
}

// TestFollowerRestartResumesFromItsCursor: a follower abandoned
// without Close reopens from its own directory at the cursor it had
// logged, and catches up with the WAL the primary still holds: after
// the fresh directory's one baseline transfer, no snapshot request
// reaches the primary, before the crash or after.
func TestFollowerRestartResumesFromItsCursor(t *testing.T) {
	checkGoroutines(t)
	primary, srv, snapshots := startPrimary(t, testOpts(), -1)
	ingestSome(t, primary, 8008, 6)
	fl := shardtest.StartFollower(t, testOpts(), srv.URL)
	syncAll(t, primary, fl.Tail)
	if n := snapshots.Load(); n != 1 {
		t.Fatalf("the primary answered %d snapshot requests for a fresh directory, want 1", n)
	}
	ingestSome(t, primary, 8108, 4)
	syncAll(t, primary, fl.Tail)
	logged := fl.Sys.AppliedSeq()

	fl.Restart(t)
	if got := fl.Sys.AppliedSeq(); got != logged {
		t.Fatalf("restarted follower resumes at seq %d, it had applied through %d", got, logged)
	}
	ingestSome(t, primary, 9009, 5)
	syncAll(t, primary, fl.Tail)
	if n := snapshots.Load(); n != 1 {
		t.Fatalf("the primary answered %d snapshot requests after the baseline; a follower its WAL covers needs none", n-1)
	}
	shardtest.AssertSameAnswers(t, "restarted follower", shardtest.SmokeQuestions, primary, fl.Sys)
	shardtest.AssertSameBodies(t, "restarted follower over HTTP", shardtest.SmokeQuestions,
		shardtest.AskBodies(t, srv.URL, shardtest.SmokeQuestions), fl.Server.URL)
}

// TestPartialFollowerRestartsFromItsDirectory: a cars follower of a
// cars+jewellery primary starts from one snapshot transfer, streams,
// and is abandoned without Close twice. It reopens from its own
// directory each time — whether it then caught up by streaming the WAL
// or, when the primary had compacted past it while it was down, by one
// more transfer — and answers cars byte-equal to the primary while
// holding no jewellery row.
func TestPartialFollowerRestartsFromItsDirectory(t *testing.T) {
	for _, tc := range []struct {
		name       string
		checkpoint bool
		snapshots  int64
	}{
		{"streamed", false, 1},
		{"snapshot", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGoroutines(t)
			opts := testOpts()
			opts.Domains = []string{"cars", "jewellery"}
			primary, srv, snapshots := startPrimary(t, opts, -1)
			ingestPartial(t, primary, 10)
			fopts := opts
			fopts.Domains = []string{"cars"}
			fl := shardtest.StartFollower(t, fopts, srv.URL)
			syncAll(t, primary, fl.Tail)
			ingestPartial(t, primary, 20)
			syncAll(t, primary, fl.Tail)

			// The follower falls behind and, in the snapshot case, the
			// primary compacts past its cursor before it restarts.
			ingestPartial(t, primary, 30)
			if tc.checkpoint {
				if err := primary.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			fl.Restart(t)
			ingestPartial(t, primary, 40)
			syncAll(t, primary, fl.Tail)
			if n := snapshots.Load(); n != tc.snapshots {
				t.Fatalf("the primary answered %d snapshot requests, want %d", n, tc.snapshots)
			}
			assertPartialFollower(t, "caught up", primary, fl.Sys)

			// Reopen the directory the catch-up wrote.
			caughtUp := fl.Sys.AppliedSeq()
			fl.Restart(t)
			if got := fl.Sys.AppliedSeq(); got != caughtUp {
				t.Fatalf("reopened follower resumes at seq %d, it had applied through %d", got, caughtUp)
			}
			assertPartialFollower(t, "reopened", primary, fl.Sys)
		})
	}
}

// assertPartialFollower checks a cars follower of a cars+jewellery
// primary: cars answers and table shape equal to the primary's, and no
// jewellery row.
func assertPartialFollower(t *testing.T, stage string, primary, follower *core.System) {
	t.Helper()
	for _, q := range []string{"cheapest honda", "blue car", "honda under 8000 dollars", "red or blue toyota under $9000"} {
		want, err := primary.AskInDomain("cars", q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := follower.AskInDomain("cars", q)
		if err != nil {
			t.Fatal(err)
		}
		shardtest.AssertSameResult(t, stage+": "+q, got, want)
	}
	if tbl, _ := follower.DB().TableForDomain("jewellery"); tbl.Len() != 0 {
		t.Errorf("%s: the cars follower holds %d jewellery rows", stage, tbl.Len())
	}
	ft, _ := follower.DB().TableForDomain("cars")
	pt, _ := primary.DB().TableForDomain("cars")
	if ft.Len() != pt.Len() || ft.Slots() != pt.Slots() {
		t.Errorf("%s: cars live/slots: follower %d/%d, primary %d/%d", stage, ft.Len(), ft.Slots(), pt.Len(), pt.Slots())
	}
}

// TestFollowerRefusesUncoveredDomains: a full follower on a fresh
// directory, attached to an uncompacted two-domain shard, is refused
// by its first sync — the baseline transfer lacks six of the domains
// it hosts — and keeps being refused rather than streaming.
func TestFollowerRefusesUncoveredDomains(t *testing.T) {
	checkGoroutines(t)
	opts := testOpts()
	opts.Domains = []string{"cars", "jewellery"}
	primary, srv, _ := startPrimary(t, opts, -1)
	ingestPartial(t, primary, 5)
	fl := shardtest.StartFollower(t, testOpts(), srv.URL)
	for i := 0; i < 2; i++ {
		_, err := fl.Tail.SyncOnce(context.Background())
		if err == nil || !strings.Contains(err.Error(), "does not cover") {
			t.Fatalf("sync %d of a full follower of a two-domain shard: %v, want a \"does not cover\" refusal", i+1, err)
		}
	}
	if got := fl.Sys.AppliedSeq(); got != 0 {
		t.Fatalf("the refused follower applied through seq %d", got)
	}
}

// TestSliceFollowerRestartsFromItsDirectory: an h3/4 follower of a
// checkpointed h1/2 primary starts from one transfer of the primary's
// h3/4 snapshot section, then streams; it holds exactly the primary's
// h3/4 rows and no other, and still does once abandoned without Close
// and reopened from its own directory.
func TestSliceFollowerRestartsFromItsDirectory(t *testing.T) {
	checkGoroutines(t)
	opts := testOpts()
	opts.Domains = []string{"cars"}
	opts.Partitions, opts.PartitionIndex = 2, 1
	opts.Dedup = false // refused on a partitioned system
	opts.DataDir = t.TempDir()
	opts.CompactBytes = -1
	primary, err := cqads.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	var sections, whole atomic.Int64
	h := webui.NewServer(primary)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/repl/snapshot" {
			if r.URL.Query().Get("partition") == "h3/4" {
				sections.Add(1)
			} else {
				whole.Add(1)
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	insertCars(t, primary, 11, 12)
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fopts := opts
	fopts.DataDir = ""
	fopts.Partitions, fopts.PartitionIndex = 4, 3
	fl := shardtest.StartFollower(t, fopts, srv.URL)
	syncAll(t, primary, fl.Tail)
	insertCars(t, primary, 12, 12)
	syncAll(t, primary, fl.Tail)
	if sections.Load() != 1 || whole.Load() != 0 {
		t.Fatalf("snapshot requests: %d for the h3/4 section, %d whole; want 1 and 0", sections.Load(), whole.Load())
	}
	assertHoldsSlice(t, "synced", primary, fl.Sys, partition.Slice{Index: 3, Count: 4})
	fl.Restart(t)
	assertHoldsSlice(t, "reopened", primary, fl.Sys, partition.Slice{Index: 3, Count: 4})
}

// insertCars inserts n generated cars ads and deletes the first.
func insertCars(t *testing.T, sys *core.System, seed int64, n int) {
	t.Helper()
	var first sqldb.RowID
	for i, ad := range adsgen.NewGenerator(seed).Generate(schema.Cars(), n) {
		id, err := sys.InsertAd("cars", ad)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = id
		}
	}
	if err := sys.DeleteAd("cars", first); err != nil {
		t.Fatal(err)
	}
}

// assertHoldsSlice fails t unless follower's cars table holds exactly
// primary's live rows whose keys hash into sl, value for value, over
// the same slot count.
func assertHoldsSlice(t *testing.T, stage string, primary, follower *core.System, sl partition.Slice) {
	t.Helper()
	pt, _ := primary.DB().TableForDomain("cars")
	ft, _ := follower.DB().TableForDomain("cars")
	if ft.Slots() != pt.Slots() {
		t.Fatalf("%s: follower has %d cars slots, primary %d", stage, ft.Slots(), pt.Slots())
	}
	held := 0
	for id := sqldb.RowID(0); id < sqldb.RowID(pt.Slots()); id++ {
		want, got := pt.Row(id), ft.Row(id)
		if !sl.ContainsKey(uint64(id)) {
			if !got.IsZero() {
				t.Errorf("%s: the %s follower holds row %d, outside its slice", stage, sl, id)
			}
			continue
		}
		if !reflect.DeepEqual(rowValues(got), rowValues(want)) {
			t.Errorf("%s: row %d: follower %v, primary %v", stage, id, rowValues(got), rowValues(want))
		}
		if !got.IsZero() {
			held++
		}
	}
	if held == 0 {
		t.Errorf("%s: the %s follower holds no rows; the test exercised nothing", stage, sl)
	}
}

func rowValues(r sqldb.Row) []sqldb.Value {
	vals := make([]sqldb.Value, r.Len())
	for i := range vals {
		vals[i] = r.At(i)
	}
	return vals
}

// ingestPartial inserts n generated cars ads and n jewellery ads, one
// of each in turn, and deletes the first cars ad.
func ingestPartial(t *testing.T, sys *core.System, n int) {
	t.Helper()
	gen := adsgen.NewGenerator(int64(n))
	cars := gen.Generate(schema.Cars(), n)
	jewels := gen.Generate(schema.Jewellery(), n)
	var first sqldb.RowID
	for i := range cars {
		id, err := sys.InsertAd("cars", cars[i])
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = id
		}
		if _, err := sys.InsertAd("jewellery", jewels[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.DeleteAd("cars", first); err != nil {
		t.Fatal(err)
	}
}
