package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/boolean"
	"repro/internal/qlog"
	"repro/internal/questions"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sqldb"
	"repro/internal/wsmatrix"
)

// relaxedCandidates is the map-seeded form of the relaxation sweep the
// equivalence tests drive: seen seeds the exclusion set and receives
// every emitted candidate.
func (s *System) relaxedCandidates(tbl *sqldb.Table, in *boolean.Interpretation, seen map[sqldb.RowID]bool) (out []sqldb.RowID) {
	sc := new(relaxScratch)
	tbl.View(func(v sqldb.View) {
		sc.begin(v.Slots())
		for id := range seen {
			sc.see(id)
		}
		out = slices.Clone(s.relaxedCandidatesInto(v, in, BuildSelect(v.Schema(), in, 0).Where, sc))
	})
	for _, id := range out {
		seen[id] = true
	}
	return out
}

var (
	largeOnce sync.Once
	largeSys  *System
	largeErr  error
)

// largeSystem builds, once per test binary, a System whose cars table
// holds 20 000 ads — the ask_large scale — and every other domain 500,
// so setup stays fast.
func largeSystem(t *testing.T) *System {
	t.Helper()
	largeOnce.Do(func() {
		db := sqldb.NewDB()
		ti := map[string]*qlog.TIMatrix{}
		var schemas []*schema.Schema
		for _, d := range schema.DomainNames {
			s := schema.ByName(d)
			n := 500
			if d == "cars" {
				n = 20000
			}
			if _, err := adsgen.NewGenerator(42+int64(len(d))*7919).Populate(db, s, n); err != nil {
				largeErr = err
				return
			}
			schemas = append(schemas, s)
			ti[d] = qlog.BuildTIMatrix(qlog.NewSimulator(s, 42).Simulate(d, 300))
		}
		ws := wsmatrix.BuildForDomains(schemas, 25, 42)
		largeSys, largeErr = New(Config{DB: db, TI: ti, WS: ws})
	})
	if largeErr != nil {
		t.Fatal(largeErr)
	}
	return largeSys
}

// relaxingQuestions returns the first n generated questions of domain
// whose answer needs the N−1 relaxation: at least two conditions or a
// superlative, and fewer exact answers than MaxAnswers.
func relaxingQuestions(t *testing.T, sys *System, domain string, n int) []string {
	t.Helper()
	tbl, err := sys.hostedTable(domain)
	if err != nil {
		t.Fatal(err)
	}
	opts := questions.Options{MinConds: 2, MaxConds: 4, SuperlativeRate: 0.3}
	var out []string
	for _, q := range questions.NewGenerator(tbl, 7).Generate(400, opts) {
		res, err := sys.AskInDomain(domain, q.Text)
		if err != nil {
			t.Fatal(err)
		}
		in := res.Interpretation
		relaxes := in.ConditionCount() >= 2 || in.Superlative != nil && in.ConditionCount() >= 1
		if relaxes && res.ExactCount < sys.maxAnswers && len(res.Answers) > res.ExactCount {
			out = append(out, q.Text)
			if len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("%s: only %d of 400 generated questions relax, want %d", domain, len(out), n)
	return nil
}

// answersKey renders everything about an answer list a client sees
// except the record maps, which follow from the ids.
func answersKey(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "exact=%d", res.ExactCount)
	for _, a := range res.Answers {
		fmt.Fprintf(&b, " %d/%v/%v/%d/%s", a.ID, a.Exact, a.RankSim, a.DroppedCond, a.SimilarityUsed)
	}
	return b.String()
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// Allocation ceilings per relaxing ask on the 20 000-ad cars table:
// the values measured once the plan cache was deleted, plus 5 %.
// A change that lowers the measurement lowers the ceiling with it; a
// change that raises it says why in CHANGES.md.
const (
	relaxAskAllocsCeiling = 146.0 // allocations per ask (measured 139)
	relaxAskKBCeiling     = 13.1  // KiB allocated per ask (measured 12.4)
)

// TestRelaxAllocBudget pins what one relaxing ask allocates over a
// 20 000-slot table: the tally arrays, the seen set and the postings
// the sweep scans must come from pooled scratch, so neither the
// allocation count nor the bytes may scale with the table.
func TestRelaxAllocBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector drops pooled items at random; allocation counts are not representative")
	}
	sys := largeSystem(t)
	qs := relaxingQuestions(t, sys, "cars", 24)
	askAll := func() {
		for _, q := range qs {
			if _, err := sys.AskInDomain("cars", q); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One P throughout, as AllocsPerRun does, so every ask draws on
	// the same per-P pool shard.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := testing.AllocsPerRun(10, askAll) / float64(len(qs))

	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		askAll()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(qs)) / 1024

	t.Logf("per relaxing ask: %.0f allocations (ceiling %.0f), %.1f KiB (ceiling %.1f)",
		allocs, relaxAskAllocsCeiling, kb, relaxAskKBCeiling)
	if allocs > relaxAskAllocsCeiling {
		t.Errorf("%.0f allocations per relaxing ask, ceiling %.0f", allocs, relaxAskAllocsCeiling)
	}
	if kb > relaxAskKBCeiling {
		t.Errorf("%.1f KiB allocated per relaxing ask, ceiling %.1f", kb, relaxAskKBCeiling)
	}
}

// TestPooledScratchConcurrentDomains asks from 8 goroutines across two
// domains whose tables differ 40-fold in slot count (500 and 20 000),
// so pooled scratch sized for one serves the other; every answer must
// equal the serially computed one.
func TestPooledScratchConcurrentDomains(t *testing.T) {
	sys := largeSystem(t)
	type job struct{ domain, q, want string }
	var jobs []job
	for _, d := range []string{"cars", "motorcycles"} {
		for _, q := range relaxingQuestions(t, sys, d, 8) {
			res, err := sys.AskInDomain(d, q)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{d, q, answersKey(res)})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(w*5+i)%len(jobs)]
				res, err := sys.AskInDomain(j.domain, j.q)
				if err != nil {
					t.Error(err)
					return
				}
				if got := answersKey(res); got != j.want {
					t.Errorf("%s %q: concurrent answers\n%s\nserial\n%s", j.domain, j.q, got, j.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPooledScratchUnderIngest sweeps candidate pools and asks while
// InsertAd and DeleteAd run concurrently: each pool must stay strictly
// ascending (so duplicate-free) and disjoint from the exact ids it was
// computed against, and no answer list may repeat an id.
func TestPooledScratchUnderIngest(t *testing.T) {
	sys := testSystem(t)
	tbl, _ := sys.db.TableForDomain("cars")
	ads := adsgen.NewGenerator(99).Generate(schema.Cars(), 300)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(5))
		for _, ad := range ads {
			if _, err := sys.InsertAd("cars", ad); err != nil {
				t.Error(err)
				return
			}
			id := sqldb.RowID(rng.Intn(tbl.Slots()))
			if _, ok := tbl.Get(id); ok {
				if err := sys.DeleteAd("cars", id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := new(relaxScratch)
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, in := range equivInterpretations() {
					var exact, pool []sqldb.RowID
					var err error
					tbl.View(func(v sqldb.View) {
						sel := BuildSelect(tbl.Schema(), in, 0)
						if exact, err = sql.RunView(v, sel); err == nil {
							pool = sys.candidatePool(v, in, sel.Where, exact, sc)
						}
					})
					if err != nil {
						t.Error(err)
						return
					}
					for i, id := range pool {
						if i > 0 && pool[i-1] >= id {
							t.Errorf("%s: pool not strictly ascending at %d: %v", in, i, pool)
							return
						}
						if slices.Contains(exact, id) {
							t.Errorf("%s: pool holds exact answer %d", in, id)
							return
						}
					}
				}
				for _, q := range []string{"Find Honda Accord blue less than 15,000 dollars", "cheapest red toyota"} {
					res, err := sys.AskInDomain("cars", q)
					if err != nil {
						t.Error(err)
						return
					}
					ids := map[sqldb.RowID]bool{}
					for _, a := range res.Answers {
						if ids[a.ID] {
							t.Errorf("%q: answer %d listed twice", q, a.ID)
							return
						}
						ids[a.ID] = true
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRelaxScratchCounterWrap runs sweeps on a scratch whose condition
// sequence and seen-set epoch sit just below uint32 wrap, with stale
// tally and stamp values a missed reset would misread; every pool must
// still equal the per-drop-set reference, and both counters must have
// wrapped by the end.
func TestRelaxScratchCounterWrap(t *testing.T) {
	for _, depth := range []int{1, 2} {
		sys := testSystemDepth(t, depth)
		tbl, _ := sys.db.TableForDomain("cars")
		sc := new(relaxScratch)
		sc.begin(tbl.Slots())
		sc.condSeq = math.MaxUint32 - 10
		sc.epoch = math.MaxUint32 - 2
		for i := range sc.mark {
			sc.mark[i], sc.cnt[i], sc.stamp[i] = sc.condSeq, 7, 1
		}
		for round := 0; round < 3; round++ {
			for qi, in := range equivInterpretations() {
				var exact, got []sqldb.RowID
				var err error
				tbl.View(func(v sqldb.View) {
					sel := BuildSelect(tbl.Schema(), in, 0)
					if exact, err = sql.RunView(v, sel); err == nil {
						got = slices.Clone(sys.candidatePool(v, in, sel.Where, exact, sc))
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				seen := map[sqldb.RowID]bool{}
				for _, id := range exact {
					seen[id] = true
				}
				var want []sqldb.RowID
				if in.ConditionCount() == 1 {
					for _, id := range tbl.AllRowIDs() {
						if !seen[id] {
							want = append(want, id)
						}
					}
				} else {
					want = referenceRelaxedCandidates(sys, tbl, in, seen)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("depth %d round %d case %d (%s): condSeq %d epoch %d: pool %v, reference %v",
						depth, round, qi, in, sc.condSeq, sc.epoch, got, want)
				}
			}
		}
		if sc.condSeq > 1000 || sc.epoch > 1000 {
			t.Fatalf("depth %d: counters did not wrap (condSeq %d, epoch %d)", depth, sc.condSeq, sc.epoch)
		}
	}
}

// TestPartialCandidatesCallerOwned: the pool PartialCandidates returns
// belongs to the caller, so scribbling over it changes neither a later
// pool nor a later answer.
func TestPartialCandidatesCallerOwned(t *testing.T) {
	sys := testSystem(t)
	in := equivInterpretations()[1]
	const q = "Find Honda Accord blue less than 15,000 dollars"
	first, err := sys.PartialCandidates("cars", in)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("empty candidate pool; the test needs one to scribble over")
	}
	want := slices.Clone(first)
	res, err := sys.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	wantAnswers := answersKey(res)
	for i := range first {
		first[i] = -1
	}
	again, err := sys.PartialCandidates("cars", in)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again, want) {
		t.Fatalf("pool changed after the caller scribbled over an earlier one:\n%v\nwant\n%v", again, want)
	}
	if res, err = sys.AskInDomain("cars", q); err != nil {
		t.Fatal(err)
	}
	if got := answersKey(res); got != wantAnswers {
		t.Fatalf("answers changed after the caller scribbled over a pool:\n%s\nwant\n%s", got, wantAnswers)
	}
}
