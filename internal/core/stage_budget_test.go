package core

import (
	"runtime"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/boolean"
	"repro/internal/classify"
	"repro/internal/questions"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sqldb"
	"repro/internal/text"
)

// Per-stage allocation ceilings over the 8×500 seed-42 corpus, per
// question of smallWorkload(cfg, 40) (per insert for InsertAd): the
// values measured when every stage of an ask came to read one table
// view (BuildSelect+compile's: once the plan cache was deleted), plus
// 5 %. A change that lowers a measurement lowers its ceiling
// with it; a change that raises one says why in CHANGES.md.
var stageCeilings = map[string]struct{ allocs, kb float64 }{
	"classify+tag+interpret": {136, 7.6},    // measured 129.3 allocations, 7.20 KiB
	"BuildSelect+compile":    {11.0, 0.41},  // measured 10.43, 0.39
	"relaxation tally":       {0.05, 0.005}, // measured 0, 0: as scoring; the ceiling only absorbs another goroutine's stray allocation
	"scoring":                {0.05, 0.01},  // measured 0, 0: row reads and memoized similarities; the ceiling only absorbs another goroutine's stray allocation
	"InsertAd (in memory)":   {0.2, 0.68},   // measured 0.17, 0.64 once the store was column-major (12.4, 0.98 before); the allocation ceiling also absorbs a few stray allocations
}

// churnHeapCeilingKB bounds the live heap that 1 000 delete+insert
// pairs on the cars table leave behind at a constant live count: the
// value measured once the store was column-major and posting lists
// shrank with their contents, plus 5 %. Retired slots keep their cells
// (about 44 bytes each in the cars table), so churn still grows the
// heap; a change that frees them lowers the measurement and the
// ceiling with it.
const churnHeapCeilingKB = 46 // measured 43.1–43.4 KiB (308.4–313.8 with row-major storage)

// smallClassifier trains the question classifier cqads.Open trains at
// seed 42: 200 generated questions per domain.
func smallClassifier(cfg Config) classify.Classifier {
	cls := classify.NewJBBSM()
	for ci, d := range schema.DomainNames {
		tbl, _ := cfg.DB.TableForDomain(d)
		train := questions.NewGenerator(tbl, 42+303+int64(ci)).Generate(200, questions.DefaultOptions())
		docs := make([][]string, len(train))
		for j := range train {
			docs[j] = text.RemoveStopwords(text.Words(train[j].Text))
		}
		cls.Train(d, docs)
	}
	return cls
}

// TestStageAllocBudgets pins what each stage of an ask allocates, and
// what an in-memory InsertAd allocates, so a regression shows in the
// stage that made it. The stages run as AskInDomain runs them; the
// relaxation tally and scoring cover the questions that relax.
func TestStageAllocBudgets(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector drops pooled items at random; allocation counts are not representative")
	}
	cfg := smallConfig(t)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cls := smallClassifier(cfg)
	type prepared struct {
		domain, q string
		in        *boolean.Interpretation
		where     sql.Expr
		exact     []sqldb.RowID
		pool      []sqldb.RowID
	}
	var all, relaxing []prepared
	for _, dq := range smallWorkload(t, cfg, 40) {
		tbl, _ := cfg.DB.TableForDomain(dq.domain)
		p := prepared{domain: dq.domain, q: dq.q, in: ResolveIncomplete(tbl.Schema(), boolean.Interpret(tbl.Schema(), sys.taggers[dq.domain].Tag(dq.q)))}
		all = append(all, p)
		if p.in.Empty || p.in.ConditionCount() == 0 {
			continue
		}
		tbl.View(func(v sqldb.View) {
			sel := BuildSelect(v.Schema(), p.in, sys.maxAnswers)
			p.where = sel.Where
			p.exact = exactIDs(t, sys, v, sel, p.in, part{})
			p.pool = append([]sqldb.RowID(nil), sys.candidatePool(v, p.in, p.where, p.exact, new(relaxScratch))...)
		})
		if len(p.exact) < sys.maxAnswers {
			relaxing = append(relaxing, p)
		}
	}
	insertSys, ads := churnSystem(t, cfg, 8*60)

	stages := []struct {
		name string
		n    int
		run  func()
	}{
		{"classify+tag+interpret", len(all), func() {
			for _, p := range all {
				if _, err := ClassifyQuestion(cls, p.q); err != nil {
					t.Fatal(err)
				}
				tbl, _ := cfg.DB.TableForDomain(p.domain)
				ResolveIncomplete(tbl.Schema(), boolean.Interpret(tbl.Schema(), sys.taggers[p.domain].Tag(p.q)))
			}
		}},
		{"BuildSelect+compile", len(all), func() {
			for _, p := range all {
				if p.in.Empty || p.in.ConditionCount() == 0 && p.in.Superlative == nil {
					continue
				}
				tbl, _ := cfg.DB.TableForDomain(p.domain)
				if _, err := sql.Compile(cfg.DB, BuildSelect(tbl.Schema(), p.in, sys.maxAnswers)); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"relaxation tally", len(relaxing), func() {
			for _, p := range relaxing {
				tbl, _ := cfg.DB.TableForDomain(p.domain)
				rs := relaxPool.Get().(*relaxScratch)
				tbl.View(func(v sqldb.View) { sys.candidatePool(v, p.in, p.where, p.exact, rs) })
				relaxPool.Put(rs)
			}
		}},
		{"scoring", len(relaxing), func() {
			for _, p := range relaxing {
				tbl, _ := cfg.DB.TableForDomain(p.domain)
				sim := sys.sims[p.domain]
				tbl.View(func(v sqldb.View) {
					for _, id := range p.pool {
						sim.RowRankSim(v.Row(id), p.in.Groups)
					}
				})
			}
		}},
	}
	// One P throughout, as AllocsPerRun does, so every run draws on
	// the same per-P pool shard.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check := func(name string, allocs, kb float64) {
		c := stageCeilings[name]
		t.Logf("%-24s %7.2f allocations (ceiling %g), %6.2f KiB (ceiling %g)", name, allocs, c.allocs, kb, c.kb)
		if allocs > c.allocs || kb > c.kb {
			t.Errorf("%s: %.2f allocations and %.2f KiB, ceilings %g and %g", name, allocs, kb, c.allocs, c.kb)
		}
	}
	for _, st := range stages {
		allocs := testing.AllocsPerRun(5, st.run) / float64(st.n)
		const rounds = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			st.run()
		}
		runtime.ReadMemStats(&after)
		check(st.name, allocs, float64(after.TotalAlloc-before.TotalAlloc)/float64(rounds*st.n)/1024)
	}

	// InsertAd grows the table, so each ad is inserted once and the
	// cost is the mean over all of them.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ad := range ads {
		if _, err := insertSys.InsertAd(ad.domain, ad.values); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(ads))
	check("InsertAd (in memory)", float64(after.Mallocs-before.Mallocs)/n, float64(after.TotalAlloc-before.TotalAlloc)/n/1024)
}

// churnAd is one generated ad and the domain it is inserted into.
type churnAd struct {
	domain string
	values map[string]sqldb.Value
}

// churnSystem builds an in-memory System over a fresh copy of cfg's
// corpus (the ads are regenerated from the same seeds, so cfg's tables
// stay untouched) and n new ads spread over the eight domains.
func churnSystem(t *testing.T, cfg Config, n int) (*System, []churnAd) {
	t.Helper()
	db := sqldb.NewDB()
	for ci, d := range schema.DomainNames {
		if _, err := adsgen.NewGenerator(42+int64(ci)*7919).Populate(db, schema.ByName(d), 500); err != nil {
			t.Fatal(err)
		}
	}
	cfg.DB = db
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := adsgen.NewGenerator(4242)
	ads := make([]churnAd, 0, n)
	for i := 0; len(ads) < n; i++ {
		d := schema.DomainNames[i%len(schema.DomainNames)]
		ads = append(ads, churnAd{d, gen.Generate(schema.ByName(d), 1)[0]})
	}
	return sys, ads
}

// TestChurnRetainedHeapBudget pins what delete+insert churn leaves on
// the heap at a constant live count: the live heap after 1 000 pairs
// on the cars table (each deletes the oldest live ad and inserts a new
// one), minus the live heap before them.
func TestChurnRetainedHeapBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's shadow memory makes heap sizes unrepresentative")
	}
	const pairs = 1000
	sys, _ := churnSystem(t, smallConfig(t), 0)
	tbl, _ := sys.db.TableForDomain("cars")
	live := tbl.AllRowIDs()
	gen := adsgen.NewGenerator(4243)
	before := liveHeap()
	for i := 0; i < pairs; i++ {
		j := i % len(live) // the oldest live ad
		if err := sys.DeleteAd("cars", live[j]); err != nil {
			t.Fatal(err)
		}
		id, err := sys.InsertAd("cars", gen.Generate(schema.Cars(), 1)[0])
		if err != nil {
			t.Fatal(err)
		}
		live[j] = id
	}
	after := liveHeap()
	runtime.KeepAlive(sys)
	if tbl.Len() != 500 {
		t.Fatalf("cars holds %d live ads after churn, want 500", tbl.Len())
	}
	kb := (float64(after) - float64(before)) / 1024
	t.Logf("%d delete+insert pairs: %.1f KiB retained (ceiling %d KiB)", pairs, kb, churnHeapCeilingKB)
	if kb > churnHeapCeilingKB {
		t.Errorf("churn left %.1f KiB on the heap, ceiling %d KiB", kb, churnHeapCeilingKB)
	}
}
