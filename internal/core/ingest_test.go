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
	"repro/internal/text"
	"repro/internal/wsmatrix"
)

// testSystemOver builds a full system (all similarity substrates)
// over an explicitly-provided database, so ingestion tests
// can compare a mutated-at-runtime system against a freshly-built one.
func testSystemOver(t *testing.T, db *sqldb.DB) *System {
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
	sys, err := New(Config{DB: db, TI: ti, WS: ws})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func populatedDB(t *testing.T, adsPerDomain int) *sqldb.DB {
	t.Helper()
	db, err := adsgen.PopulateAll(42, adsPerDomain)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestInsertAdVisibleToAsk is the headline live-ingestion contract: an
// ad inserted into a RUNNING system is returned by the next Ask, and
// stops being returned after DeleteAd.
func TestInsertAdVisibleToAsk(t *testing.T) {
	sys := testSystemOver(t, populatedDB(t, 300))
	const q = "gold lexus es350"
	hasID := func(res *Result, id sqldb.RowID) bool {
		for _, a := range res.Answers[:res.ExactCount] {
			if a.ID == id {
				return true
			}
		}
		return false
	}
	id, err := sys.InsertAd("cars", map[string]sqldb.Value{
		"make":  sqldb.String("lexus"),
		"model": sqldb.String("es350"),
		"color": sqldb.String("gold"),
		"price": sqldb.Number(31337),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if !hasID(res, id) {
		t.Fatalf("freshly inserted ad %d not among the %d exact answers", id, res.ExactCount)
	}
	if err := sys.DeleteAd("cars", id); err != nil {
		t.Fatal(err)
	}
	res, err = sys.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if hasID(res, id) {
		t.Fatalf("deleted ad %d still among exact answers", id)
	}
	for _, a := range res.Answers {
		if a.ID == id {
			t.Fatalf("deleted ad %d resurfaced as a partial answer", id)
		}
	}
	// Errors for bad targets.
	if _, err := sys.InsertAd("starships", nil); err == nil {
		t.Error("InsertAd(unknown domain) should error")
	}
	if err := sys.DeleteAd("cars", id); err == nil {
		t.Error("double DeleteAd should error")
	}
}

// TestIngestedSystemMatchesFreshBuild: a system that ingested ads at
// runtime must answer exactly like a system built from scratch over
// the same final data — superlative answers included, whose extreme
// set moves as ads arrive.
func TestIngestedSystemMatchesFreshBuild(t *testing.T) {
	const base, extra = 250, 60
	live := testSystemOver(t, populatedDB(t, base))
	extraAds := adsgen.NewGenerator(1234).Generate(schema.Cars(), extra)
	for _, ad := range extraAds {
		if _, err := live.InsertAd("cars", ad); err != nil {
			t.Fatal(err)
		}
	}

	freshDB := populatedDB(t, base)
	freshTbl, _ := freshDB.TableForDomain("cars")
	for _, ad := range extraAds {
		if _, err := freshTbl.Insert(ad); err != nil {
			t.Fatal(err)
		}
	}
	fresh := testSystemOver(t, freshDB)

	questions := []string{
		"Find Honda Accord blue less than 15,000 dollars",
		"cheapest honda", // superlative over the grown corpus
		"newest red bmw", // superlative, descending
		"blue car",       // single condition → whole-table candidates
		"red or blue toyota under $9000",
		"manual lexus es350",
	}
	for _, q := range questions {
		lr, err := live.AskInDomain("cars", q)
		if err != nil {
			t.Fatalf("%q live: %v", q, err)
		}
		fr, err := fresh.AskInDomain("cars", q)
		if err != nil {
			t.Fatalf("%q fresh: %v", q, err)
		}
		assertSameResult(t, fmt.Sprintf("%q live vs fresh", q), lr, fr)
	}
}

// survivorsDB copies every domain table of db into a new database,
// each live row at its RowID: the database a fresh build over only the
// surviving ads starts from.
func survivorsDB(t *testing.T, db *sqldb.DB) *sqldb.DB {
	t.Helper()
	out := sqldb.NewDB()
	for _, d := range schema.DomainNames {
		src, _ := db.TableForDomain(d)
		dst, err := out.CreateTable(schema.ByName(d))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range src.AllRowIDs() {
			if err := dst.InsertAt(id, src.Row(id).Record()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestDeleteMatchesFreshBuild: after deleting ads at runtime, answers
// must match a system freshly built over only the surviving rows. The
// fresh build puts each survivor at its live RowID (InsertAt leaves the
// deleted slots as never-live holes), so answers compare id for id.
func TestDeleteMatchesFreshBuild(t *testing.T) {
	const base = 250
	live := testSystemOver(t, populatedDB(t, base))
	liveTbl, _ := live.DB().TableForDomain("cars")

	// Expire every third car ad at runtime.
	var doomed []sqldb.RowID
	for i, id := range liveTbl.AllRowIDs() {
		if i%3 == 0 {
			doomed = append(doomed, id)
		}
	}
	for _, id := range doomed {
		if err := live.DeleteAd("cars", id); err != nil {
			t.Fatalf("DeleteAd: ad %d: %v", id, err)
		}
	}

	fresh := testSystemOver(t, survivorsDB(t, live.DB()))
	for _, q := range []string{
		"Find Honda Accord blue less than 15,000 dollars",
		"cheapest honda",
		"blue car",
		"red or blue toyota under $9000",
	} {
		lr, err := live.AskInDomain("cars", q)
		if err != nil {
			t.Fatalf("%q live: %v", q, err)
		}
		fr, err := fresh.AskInDomain("cars", q)
		if err != nil {
			t.Fatalf("%q fresh: %v", q, err)
		}
		assertSameResult(t, fmt.Sprintf("%q live vs fresh", q), lr, fr)
	}
}

// TestSuperlativeSkipsNonNumeric is the regression test for the
// NULL-price superlative bug: "cheapest X" must not return ads whose
// superlative attribute is NULL (Num() coerced them to 0, and NULL
// sorts first ascending, so they used to BE the extreme set).
func TestSuperlativeSkipsNonNumeric(t *testing.T) {
	db := sqldb.NewDB()
	tbl, err := db.CreateTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	rows := []map[string]sqldb.Value{
		{"make": sqldb.String("honda"), "model": sqldb.String("accord"), "price": sqldb.Number(9000)},
		{"make": sqldb.String("honda"), "model": sqldb.String("civic")}, // no price
		{"make": sqldb.String("honda"), "model": sqldb.String("civic"), "price": sqldb.Number(7000)},
		{"make": sqldb.String("toyota"), "model": sqldb.String("camry"), "price": sqldb.Number(1000)},
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.AskInDomain("cars", "cheapest honda")
	if err != nil {
		t.Fatal(err)
	}
	if res.ExactCount != 1 {
		t.Fatalf("exact answers = %d, want 1 (the $7000 civic)", res.ExactCount)
	}
	a := res.Answers[0]
	if a.ID != 2 || a.Record.Value("price").Num() != 7000 {
		t.Fatalf("cheapest honda = row %d (price %v), want row 2 ($7000)", a.ID, a.Record.Value("price"))
	}
	// All-NULL superlative set: no exact answers rather than a row
	// fabricated from the zero coercion.
	res, err = sys.AskInDomain("cars", "cheapest bmw")
	if err != nil {
		t.Fatal(err)
	}
	if res.ExactCount != 0 {
		t.Fatalf("cheapest over empty set: %d exact answers, want 0", res.ExactCount)
	}
}

// TestIngestWhileAsking is the live-ingestion race test: a writer
// goroutine inserts and expires ads while pooled readers hammer the
// same domain (run with -race). Answers are not asserted point-in-time
// — the corpus legitimately changes under the readers — only that no
// question errors and no race fires across similarity caching,
// concurrent classifier reads and index maintenance.
func TestIngestWhileAsking(t *testing.T) {
	db := populatedDB(t, 200)
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
	sys, err := New(Config{DB: db, TI: ti, WS: ws, Classifier: cls})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: continuous ingestion + expiry
		defer wg.Done()
		defer close(done)
		gen := adsgen.NewGenerator(777)
		var posted []sqldb.RowID
		for i := 0; i < 120; i++ {
			ad := gen.Generate(schema.Cars(), 1)[0]
			id, err := sys.InsertAd("cars", ad)
			if err != nil {
				t.Errorf("InsertAd: %v", err)
				return
			}
			posted = append(posted, id)
			if len(posted) > 20 {
				if err := sys.DeleteAd("cars", posted[0]); err != nil {
					t.Errorf("DeleteAd: %v", err)
					return
				}
				posted = posted[1:]
			}
		}
	}()

	questions := []string{
		"Find Honda Accord blue less than 15,000 dollars",
		"cheapest honda", // superlative against the moving extreme set
		"blue car",
		"red or blue toyota under $9000",
		"manual bmw m3 less than $9000",
	}
	inCars := func(q string) (*Result, error) { return sys.AskInDomain("cars", q) }
	for r := 0; r < 3; r++ {
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
				// Classified path too: the race check of the
				// lock-free classifier, read by every asker at once.
				if _, err := sys.Ask("honda accord blue"); err != nil {
					t.Errorf("Ask: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
