package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/adsgen"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

// waitUntil polls cond without reading a wall clock (core tests run
// under the wallclock lint), failing the test after ~5s of sleeps.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestGroupCommitCoalescesFsyncs pins the ingest lock so concurrent
// single inserts pile up behind one in-flight batch, then counts WAL
// fsyncs: N writers must cost far fewer than N syncs (at most one for
// the pinned batch plus one for everything that queued behind it).
func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	sys, err := Open(persistentConfig(t, populatedDB(t, 50), t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	p := sys.persist
	if p.gc == nil {
		t.Fatal("group committer not running on a durable system")
	}
	const writers = 16
	ads := adsgen.NewGenerator(99).Generate(schema.Cars(), writers)
	syncsBefore := p.store.Syncs()

	p.mu.Lock()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	spawn := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = sys.InsertAd("cars", ads[i])
		}()
	}
	spawn(0)
	waitUntil(t, "first write dequeued", func() bool { return p.gc.batched.Load() >= 1 })
	for i := 1; i < writers; i++ {
		spawn(i)
	}
	// Every writer is either in the committer's current batch or in
	// the queue; nothing can commit while we hold the ingest lock.
	waitUntil(t, "all writes queued", func() bool {
		return p.gc.batched.Load()+int64(p.gc.queued()) == writers
	})
	p.mu.Unlock()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	syncs := p.store.Syncs() - syncsBefore
	if syncs < 1 || syncs > 2 {
		t.Fatalf("%d concurrent inserts cost %d fsyncs, want 1 or 2 (group commit)", writers, syncs)
	}

	// Unpinned sanity pass: free-running concurrency must still honor
	// the ≥1, ≤N bound (the exact batching is scheduler-dependent).
	more := adsgen.NewGenerator(100).Generate(schema.Cars(), writers)
	syncsBefore = p.store.Syncs()
	for i := range more {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := sys.InsertAd("cars", more[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if syncs := p.store.Syncs() - syncsBefore; syncs < 1 || syncs > writers {
		t.Fatalf("free-running: %d inserts cost %d fsyncs, want 1..%d", writers, syncs, writers)
	}
}

// TestGroupCommitReplayBitIdentity kills a system whose writes all
// went through the group committer and requires recovery to answer
// identically — replayOp verifies every insert's RowID against the
// log, so a clean reopen also proves log order equals mutation order.
func TestGroupCommitReplayBitIdentity(t *testing.T) {
	dir := t.TempDir()
	const base = 250
	live, err := Open(persistentConfig(t, populatedDB(t, base), dir))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 6
	var wg sync.WaitGroup
	ids := make([][]sqldb.RowID, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := adsgen.NewGenerator(int64(1000 + w))
			for _, ad := range gen.Generate(schema.Cars(), perWriter) {
				id, err := live.InsertAd("cars", ad)
				if err != nil {
					t.Error(err)
					return
				}
				ids[w] = append(ids[w], id)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Racing deletes, one victim per writer, also through the committer.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := live.DeleteAd("cars", ids[w][0]); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Kill: no Close, no Checkpoint — recovery sees only what the
	// group commits fsync'd.
	recovered, err := Open(persistentConfig(t, populatedDB(t, base), dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	assertSameTables(t, "groupcommit-recovered-vs-live", recovered, live)
	assertSameAnswersByID(t, "groupcommit-recovered-vs-live", recovered, live)
}

// TestGroupCommitMidBatchFailureLatches fails the WAL under a batch
// with more writers queued behind it: nobody may be acked, the store
// must latch before any queued writer touches a table, and recovery
// must come back to the last durable state with none of the doomed
// writes resurrected.
func TestGroupCommitMidBatchFailureLatches(t *testing.T) {
	dir := t.TempDir()
	sys, err := Open(persistentConfig(t, populatedDB(t, 50), dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	p := sys.persist
	tbl, _ := sys.DB().TableForDomain("cars")
	liveBefore := tbl.Len()
	const writers = 6
	ads := adsgen.NewGenerator(7).Generate(schema.Cars(), writers)

	p.mu.Lock()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sys.InsertAd("cars", ads[i])
		}(i)
		if i == 0 {
			waitUntil(t, "first write dequeued", func() bool { return p.gc.batched.Load() >= 1 })
		}
	}
	waitUntil(t, "all writes queued", func() bool {
		return p.gc.batched.Load()+int64(p.gc.queued()) == writers
	})
	// Sabotage the WAL while every writer is pending: the in-flight
	// batch's Append fails and must latch ingestion shut.
	if err := p.store.Close(); err != nil {
		t.Fatal(err)
	}
	p.mu.Unlock()
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			t.Fatalf("writer %d was acked despite the WAL failure", i)
		}
		if !errors.Is(err, ErrDurabilityLost) {
			t.Fatalf("writer %d: error %v does not wrap ErrDurabilityLost", i, err)
		}
	}
	if !p.failed.Load() {
		t.Fatal("persister did not latch after the failed group commit")
	}
	// The latch refuses new writes before any table mutation.
	lenAfter := tbl.Len()
	if _, err := sys.InsertAd("cars", ads[0]); !errors.Is(err, ErrDurabilityLost) {
		t.Fatalf("post-latch InsertAd error = %v, want ErrDurabilityLost", err)
	}
	if tbl.Len() != lenAfter {
		t.Fatal("post-latch InsertAd mutated the table")
	}
	if mutated := lenAfter - liveBefore; mutated < 0 || mutated > writers {
		t.Fatalf("in-memory divergence of %d rows, want 0..%d (doomed batch only)", mutated, writers)
	}

	// None of the unacked writes may survive a restart: the directory
	// recovers to exactly the pre-failure durable state.
	recovered, err := Open(persistentConfig(t, populatedDB(t, 50), dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	recTbl, _ := recovered.DB().TableForDomain("cars")
	if recTbl.Len() != liveBefore {
		t.Fatalf("recovered cars table has %d rows, want the pre-failure %d (unacked writes resurrected)", recTbl.Len(), liveBefore)
	}
}

// BenchmarkDurableSingleInsert measures sustained single-insert
// throughput with ≥8 concurrent writers through group commit, and
// reports the fsync amortization as ops/fsync. (The per-call-fsync
// path it was first measured against is gone; its figure is in
// CHANGES.md, PR 9.)
func BenchmarkDurableSingleInsert(b *testing.B) {
	db, err := adsgen.PopulateAll(42, 50)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := Open(Config{DB: db, DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	gen := adsgen.NewGenerator(1)
	ads := gen.Generate(schema.Cars(), 256)
	syncsBefore := sys.persist.store.Syncs()
	b.SetParallelism(8) // ≥8 writer goroutines regardless of GOMAXPROCS
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var n int64
		for pb.Next() {
			n++
			ad := ads[int(n)%len(ads)]
			if _, err := sys.InsertAd("cars", ad); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if syncs := sys.persist.store.Syncs() - syncsBefore; syncs > 0 {
		b.ReportMetric(float64(b.N)/float64(syncs), "ops/fsync")
	}
}
