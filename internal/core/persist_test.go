package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/classify"
	"repro/internal/qlog"
	"repro/internal/schema"
	"repro/internal/sqldb"
	"repro/internal/sqldb/sqldbtest"
	"repro/internal/text"
	"repro/internal/wsmatrix"
)

// persistentConfig builds the full substrate set (TI, WS, trained
// JBBSM classifier) over db, pointed at dir.
// Every call is deterministic, so two configs built over equal
// databases are equal — the recovery tests rely on that to rebuild
// the baseline a crashed process would rebuild.
func persistentConfig(t *testing.T, db *sqldb.DB, dir string) Config {
	t.Helper()
	ti := map[string]*qlog.TIMatrix{}
	var schemas []*schema.Schema
	for _, d := range schema.DomainNames {
		s := schema.ByName(d)
		schemas = append(schemas, s)
		sim := qlog.NewSimulator(s, 42)
		ti[d] = qlog.BuildTIMatrix(sim.Simulate(d, 300))
	}
	ws := wsmatrix.BuildForDomains(schemas, 25, 42)
	cls := classify.NewJBBSM()
	for _, d := range schema.DomainNames {
		sch := schema.ByName(d)
		var docs [][]string
		for _, a := range sch.Attrs {
			for _, v := range a.Values {
				docs = append(docs, text.Words(strings.ToLower(d+" "+v)))
			}
		}
		cls.Train(d, docs)
	}
	return Config{
		DB: db, TI: ti, WS: ws, Classifier: cls,
		DataDir: dir,
	}
}

// recoveryQuestions exercises exact matching, superlatives over the
// mutated extreme set, single-condition relaxation, OR groups, and
// the classified Ask path.
var recoveryQuestions = []string{
	"Find Honda Accord blue less than 15,000 dollars",
	"cheapest honda",
	"newest red bmw",
	"blue car",
	"red or blue toyota under $9000",
	"manual lexus es350",
}

// assertSameAnswersByID requires bit-identical results between two
// systems whose RowID spaces coincide (live vs recovered).
func assertSameAnswersByID(t *testing.T, label string, a, b *System) {
	t.Helper()
	for _, q := range recoveryQuestions {
		ra, err := a.AskInDomain("cars", q)
		if err != nil {
			t.Fatalf("%s: %q (left): %v", label, q, err)
		}
		rb, err := b.AskInDomain("cars", q)
		if err != nil {
			t.Fatalf("%s: %q (right): %v", label, q, err)
		}
		assertSameResult(t, fmt.Sprintf("%s: %q", label, q), ra, rb)
	}
	// The classified path must route and answer identically too: the
	// classifier is not stored, so each side rebuilt it from its
	// config, and equal configs must route alike.
	for _, q := range []string{"honda accord blue", "cheapest honda", "gold lexus es350"} {
		x, errA := a.Ask(q)
		y, errB := b.Ask(q)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: Ask %q: errors differ: %v vs %v", label, q, errA, errB)
		}
		if errA == nil {
			assertSameResult(t, fmt.Sprintf("%s: Ask %q", label, q), x, y)
		}
	}
}

// assertSameTables requires every table of got to hold want's
// table of the same domain, slot for slot and cell for cell.
func assertSameTables(t *testing.T, label string, got, want *System) {
	t.Helper()
	for _, d := range want.DB().Domains() {
		wt, _ := want.DB().TableForDomain(d)
		gt, ok := got.DB().TableForDomain(d)
		if !ok {
			t.Fatalf("%s: no %s table", label, d)
		}
		sqldbtest.AssertSameTable(t, label, gt, wt, nil)
	}
}

// mutateLive drives a representative ingest workload of durable
// inserts and deletes over two domains.
func mutateLive(t *testing.T, sys *System) {
	t.Helper()
	gen := adsgen.NewGenerator(555)
	var posted []sqldb.RowID
	for _, ad := range gen.Generate(schema.Cars(), 30) {
		id, err := sys.InsertAd("cars", ad)
		if err != nil {
			t.Fatal(err)
		}
		posted = append(posted, id)
	}
	for _, ad := range gen.Generate(schema.Cars(), 15) {
		id, err := sys.InsertAd("cars", ad)
		if err != nil {
			t.Fatal(err)
		}
		posted = append(posted, id)
	}
	// Expire every third ingested ad.
	for i, id := range posted {
		if i%3 == 0 {
			if err := sys.DeleteAd("cars", id); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A second domain, so recovery is not a cars-only special case.
	for _, ad := range gen.Generate(schema.Motorcycles(), 5) {
		if _, err := sys.InsertAd("motorcycles", ad); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverFromKillMidIngest is the acceptance test of the
// persistence tentpole: a system killed with no graceful shutdown
// after N inserts and M deletes recovers from snapshot + WAL replay
// and answers the question suite identically to the never-restarted
// system — and to a fresh build over the surviving ads.
func TestRecoverFromKillMidIngest(t *testing.T) {
	dir := t.TempDir()
	const base = 250
	live, err := Open(persistentConfig(t, populatedDB(t, base), dir))
	if err != nil {
		t.Fatal(err)
	}
	mutateLive(t, live)
	// Kill: no Close, no Checkpoint. The WAL was fsync'd per call, so
	// the on-disk state is exactly what a SIGKILL would leave.

	recovered, err := Open(persistentConfig(t, populatedDB(t, base), dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	assertSameTables(t, "recovered-vs-live", recovered, live)
	assertSameAnswersByID(t, "recovered-vs-live", recovered, live)

	// A fresh build over only the surviving ads, each at its live RowID,
	// answers the same.
	fresh, err := New(persistentConfig(t, survivorsDB(t, live.DB()), "")) // in-memory twin
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswersByID(t, "recovered-vs-fresh", recovered, fresh)
}

// TestCheckpointThenKillRecovers: mutations before a checkpoint come
// back from the snapshot, mutations after it from the WAL tail, and
// the WAL only holds the tail.
func TestCheckpointThenKillRecovers(t *testing.T) {
	dir := t.TempDir()
	const base = 120
	live, err := Open(persistentConfig(t, populatedDB(t, base), dir))
	if err != nil {
		t.Fatal(err)
	}
	mutateLive(t, live)
	preSeq := live.Status().Persistence.Seq
	if err := live.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := live.Status().Persistence
	if st.WALBytes != 0 {
		t.Errorf("WAL size after checkpoint = %d, want 0", st.WALBytes)
	}
	if st.CheckpointSeq != preSeq || st.CheckpointSeq == 0 {
		t.Errorf("checkpoint seq = %d, want %d", st.CheckpointSeq, preSeq)
	}
	if st.LastCheckpoint.IsZero() {
		t.Error("LastCheckpoint not stamped")
	}
	// Tail mutations after the checkpoint, then kill.
	gen := adsgen.NewGenerator(777)
	var tailIDs []sqldb.RowID
	for _, ad := range gen.Generate(schema.Cars(), 8) {
		id, err := live.InsertAd("cars", ad)
		if err != nil {
			t.Fatal(err)
		}
		tailIDs = append(tailIDs, id)
	}
	if err := live.DeleteAd("cars", tailIDs[0]); err != nil {
		t.Fatal(err)
	}

	recovered, err := Open(persistentConfig(t, populatedDB(t, base), dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	assertSameAnswersByID(t, "post-checkpoint", recovered, live)
	rst := recovered.Status().Persistence
	if rst.Seq != live.Status().Persistence.Seq {
		t.Errorf("recovered seq %d, live %d", rst.Seq, live.Status().Persistence.Seq)
	}
}

// TestCloseCheckpointsAndReopens: the graceful path — Close writes a
// final checkpoint, ingestion after Close fails cleanly, and a reopen
// recovers without replaying anything.
func TestCloseCheckpointsAndReopens(t *testing.T) {
	dir := t.TempDir()
	const base = 100
	sys, err := Open(persistentConfig(t, populatedDB(t, base), dir))
	if err != nil {
		t.Fatal(err)
	}
	mutateLive(t, sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := sys.InsertAd("cars", map[string]sqldb.Value{"make": sqldb.String("kia")}); err == nil {
		t.Error("InsertAd after Close succeeded")
	}
	if err := sys.DeleteAd("cars", 0); err == nil {
		t.Error("DeleteAd after Close succeeded")
	}

	reopened, err := Open(persistentConfig(t, populatedDB(t, base), dir))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if st := reopened.Status().Persistence; st.Seq != st.CheckpointSeq {
		t.Errorf("reopen after graceful close left a WAL tail: seq %d, checkpoint %d", st.Seq, st.CheckpointSeq)
	}
	assertSameAnswersByID(t, "graceful-reopen", reopened, sys)
}

// TestNonPersistentSystemPersistenceAPI: New-built systems answer the
// persistence API conservatively.
func TestNonPersistentSystemPersistenceAPI(t *testing.T) {
	sys := testSystemOver(t, populatedDB(t, 50))
	if err := sys.Checkpoint(); err == nil {
		t.Error("Checkpoint on non-persistent system succeeded")
	}
	if err := sys.Close(); err != nil {
		t.Errorf("Close on non-persistent system: %v", err)
	}
	st := sys.Status()
	if st.Persistence.Enabled {
		t.Error("non-persistent system reports persistence enabled")
	}
	if len(st.Domains) != len(schema.DomainNames) {
		t.Errorf("status lists %d domains, want %d", len(st.Domains), len(schema.DomainNames))
	}
	for _, d := range st.Domains {
		if d.Live <= 0 || d.Slots < d.Live {
			t.Errorf("domain %s: live %d slots %d", d.Domain, d.Live, d.Slots)
		}
	}
}

// TestFailedLatchStopsIngestBeforeMutation: once a WAL append has
// failed, memory and log have diverged — further ingestion must be
// refused BEFORE touching the tables (otherwise a later logged insert
// replays onto the wrong RowID and the directory becomes
// unrecoverable), checkpointing must be refused (it would resurrect
// mutations whose callers saw errors), reads must keep working, and a
// reopen must recover the last durable state.
func TestFailedLatchStopsIngestBeforeMutation(t *testing.T) {
	dir := t.TempDir()
	const base = 80
	sys, err := Open(persistentConfig(t, populatedDB(t, base), dir))
	if err != nil {
		t.Fatal(err)
	}
	gen := adsgen.NewGenerator(321)
	if _, err := sys.InsertAd("cars", gen.Generate(schema.Cars(), 1)[0]); err != nil {
		t.Fatal(err)
	}
	sys.persist.failed.Store(true) // simulate a WAL append failure

	tbl, _ := sys.DB().TableForDomain("cars")
	liveBefore, slotsBefore := tbl.Len(), tbl.Slots()
	for _, ad := range gen.Generate(schema.Cars(), 3) {
		if _, err := sys.InsertAd("cars", ad); err == nil {
			t.Error("InsertAd after WAL failure succeeded")
		}
	}
	for _, id := range []sqldb.RowID{0, 1, 2} {
		if err := sys.DeleteAd("cars", id); err == nil {
			t.Errorf("DeleteAd(%d) after WAL failure succeeded", id)
		}
	}
	if tbl.Len() != liveBefore || tbl.Slots() != slotsBefore {
		t.Fatalf("refused ingestion still mutated the table: %d/%d, was %d/%d",
			tbl.Len(), tbl.Slots(), liveBefore, slotsBefore)
	}
	if err := sys.Checkpoint(); err == nil {
		t.Error("Checkpoint after WAL failure succeeded")
	}
	if !sys.Status().Persistence.Failed {
		t.Error("Status does not report the failure")
	}
	// Reads still work.
	if _, err := sys.AskInDomain("cars", "blue car"); err != nil {
		t.Errorf("Ask after WAL failure: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Errorf("Close after WAL failure: %v", err)
	}

	// Restart recovers everything durably acknowledged before the
	// failure (the one logged insert included).
	reopened, err := Open(persistentConfig(t, populatedDB(t, base), dir))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	rt, _ := reopened.DB().TableForDomain("cars")
	if rt.Len() != liveBefore || rt.Slots() != slotsBefore {
		t.Errorf("recovered %d live/%d slots, want %d/%d", rt.Len(), rt.Slots(), liveBefore, slotsBefore)
	}
}

// TestCheckpointWhileIngestAndAsk is the persistence race test (run
// with -race): a writer ingests and expires durable ads while pooled
// readers hammer the domain, automatic compaction fires on a tiny WAL
// threshold, and explicit Checkpoint/Status calls overlap everything.
// Then the store is closed and reopened to prove the contended log
// still recovers.
func TestCheckpointWhileIngestAndAsk(t *testing.T) {
	dir := t.TempDir()
	cfg := persistentConfig(t, populatedDB(t, 150), dir)
	cfg.CompactBytes = 2 << 10 // force frequent background compaction
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: durable ingestion + expiry, with bursts
		defer wg.Done()
		defer close(done)
		gen := adsgen.NewGenerator(999)
		var posted []sqldb.RowID
		for i := 0; i < 40; i++ {
			if i%8 == 0 {
				for _, ad := range gen.Generate(schema.Cars(), 4) {
					id, err := sys.InsertAd("cars", ad)
					if err != nil {
						t.Errorf("InsertAd: %v", err)
						return
					}
					posted = append(posted, id)
				}
				continue
			}
			id, err := sys.InsertAd("cars", gen.Generate(schema.Cars(), 1)[0])
			if err != nil {
				t.Errorf("InsertAd: %v", err)
				return
			}
			posted = append(posted, id)
			if len(posted) > 15 {
				if err := sys.DeleteAd("cars", posted[0]); err != nil {
					t.Errorf("DeleteAd: %v", err)
					return
				}
				posted = posted[1:]
			}
		}
	}()

	wg.Add(1)
	go func() { // checkpointer: explicit checkpoints + status polls
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := sys.Checkpoint(); err != nil {
				t.Errorf("Checkpoint: %v", err)
				return
			}
			_ = sys.Status()
		}
	}()

	questions := []string{
		"Find Honda Accord blue less than 15,000 dollars",
		"cheapest honda",
		"blue car",
		"red or blue toyota under $9000",
	}
	inCars := func(q string) (*Result, error) { return sys.AskInDomain("cars", q) }
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, r := range pooledAsk(questions, 4, inCars) {
					if r.err != nil {
						t.Errorf("%q: %v", questions[i], r.err)
						return
					}
				}
				if _, err := sys.Ask("honda accord blue"); err != nil {
					t.Errorf("Ask: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(persistentConfig(t, populatedDB(t, 150), dir))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertSameAnswersByID(t, "post-contention", reopened, sys)
}
