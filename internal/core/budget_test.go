package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/partition"
	"repro/internal/qlog"
	"repro/internal/questions"
	"repro/internal/schema"
	"repro/internal/sqldb"
	"repro/internal/wsmatrix"
)

var (
	smallOnce sync.Once
	smallCfg  Config
	smallErr  error
)

// smallConfig builds, once per test binary, the environment cqads.Open
// serves at seed 42 with 500 ads in each of the eight domains (the
// ask_small corpus): the same ad, TI-matrix and WS-matrix seeds.
func smallConfig(t *testing.T) Config {
	t.Helper()
	smallOnce.Do(func() {
		const seed = 42
		db := sqldb.NewDB()
		ti := map[string]*qlog.TIMatrix{}
		schemas := make([]*schema.Schema, len(schema.DomainNames))
		for ci, d := range schema.DomainNames {
			s := schema.ByName(d)
			if _, err := adsgen.NewGenerator(seed+int64(ci)*7919).Populate(db, s, 500); err != nil {
				smallErr = err
				return
			}
			schemas[ci] = s
			ti[d] = qlog.BuildTIMatrix(qlog.NewSimulator(s, seed+101).Simulate(d, 500))
		}
		smallCfg = Config{DB: db, TI: ti, WS: wsmatrix.BuildForDomains(schemas, 40, seed+202)}
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallCfg
}

// domainQuestion is one generated question with the domain it is
// asked in.
type domainQuestion struct{ domain, q string }

// smallWorkload generates perDomain questions for each of the eight
// domains of cfg's corpus.
func smallWorkload(t *testing.T, cfg Config, perDomain int) []domainQuestion {
	t.Helper()
	var out []domainQuestion
	for i, d := range schema.DomainNames {
		tbl, ok := cfg.DB.TableForDomain(d)
		if !ok {
			t.Fatalf("no table for %q", d)
		}
		for _, q := range questions.NewGenerator(tbl, 42+404+int64(i)).Generate(perDomain, questions.DefaultOptions()) {
			out = append(out, domainQuestion{d, q.Text})
		}
	}
	return out
}

// liveHeap returns the bytes of live heap objects after a full
// collection. Two cycles: the first moves sync.Pool contents to the
// victim cache, the second frees them.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// retainedHeapCeilingKB bounds the live heap that the asks of
// TestRetainedHeapBudget leave behind: the value measured once the plan
// cache was deleted (247.4 KiB), plus 5 %. A change that lowers
// the measurement lowers the ceiling with it; a change that raises it
// says why in CHANGES.md.
const retainedHeapCeilingKB = 260

// TestRetainedHeapBudget pins what asking leaves on the heap: the live
// heap after building a System over the 8×500 corpus and asking every
// workload question twice, minus the live heap right after building
// it. Answers are views of the stored rows, so what remains is only
// what the System caches by vocabulary; nothing may grow with the rows
// answered.
func TestRetainedHeapBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's shadow memory makes heap sizes unrepresentative")
	}
	cfg := smallConfig(t)
	qs := smallWorkload(t, cfg, 80)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	answers := 0
	for pass := 0; pass < 2; pass++ {
		for _, dq := range qs {
			res, err := sys.AskInDomain(dq.domain, dq.q)
			if err != nil {
				t.Fatal(err)
			}
			answers += len(res.Answers)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(sys)
	retainedKB := (float64(after) - float64(before)) / 1024
	t.Logf("%d asks, %d answers: %.1f KiB retained (ceiling %d KiB)", 2*len(qs), answers, retainedKB, retainedHeapCeilingKB)
	if retainedKB > retainedHeapCeilingKB {
		t.Errorf("asks left %.1f KiB on the heap, ceiling %d KiB", retainedKB, retainedHeapCeilingKB)
	}
}

// TestAnswerAssemblyAllocatesNothingPerAnswer pins the cost of handing
// out answers: an answer holds a row view, so beyond the one Answers
// slice, assembly allocates nothing per answer. The same asks on two
// Systems that differ only in MaxAnswers return different numbers of
// answers and must make the same number of allocations. The asks are
// those whose path the cap does not change: all exact under both caps,
// or no exact answer under either (the relaxation runs under both and
// ranks more answers under the larger cap). Both a monolith ask and a
// scatter part over the whole slice are measured. Pool refills after a
// collection can move a total by an allocation or two, so the bound is
// 0.01 allocations per answer: one allocation per answer reads as 1.
func TestAnswerAssemblyAllocatesNothingPerAnswer(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector drops pooled items at random; allocation counts are not representative")
	}
	const few = 10
	cfg := smallConfig(t)
	newSystem := func(maxAnswers int) *System {
		c := cfg
		c.MaxAnswers = maxAnswers
		sys, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	capped, full := newSystem(few), newSystem(DefaultMaxAnswers)
	var qs []domainQuestion
	for _, dq := range smallWorkload(t, cfg, 40) {
		res, err := full.AskInDomain(dq.domain, dq.q)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExactCount == DefaultMaxAnswers || res.ExactCount == 0 && len(res.Answers) > few {
			qs = append(qs, dq)
		}
	}
	asks := []struct {
		name string
		ask  func(sys *System, dq domainQuestion) (answers int, err error)
	}{
		{"AskInDomain", func(sys *System, dq domainQuestion) (int, error) {
			res, err := sys.AskInDomain(dq.domain, dq.q)
			if err != nil {
				return 0, err
			}
			return len(res.Answers), nil
		}},
		{"AskInDomainScatter over the whole slice", func(sys *System, dq domainQuestion) (int, error) {
			res, err := sys.AskInDomainScatter(dq.domain, dq.q, partition.Whole())
			if err != nil {
				return 0, err
			}
			return len(res.Answers), nil
		}},
	}
	// One P throughout, as AllocsPerRun does, so every ask draws on
	// the same per-P pool shard.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, a := range asks {
		measure := func(sys *System) (allocs float64, answers int) {
			askAll := func() {
				answers = 0
				for _, dq := range qs {
					n, err := a.ask(sys, dq)
					if err != nil {
						t.Fatal(err)
					}
					answers += n
				}
			}
			return testing.AllocsPerRun(10, askAll), answers
		}
		fewAllocs, fewAnswers := measure(capped)
		manyAllocs, manyAnswers := measure(full)
		if manyAnswers <= fewAnswers {
			t.Fatalf("%s: %d asks gave %d answers under MaxAnswers %d and %d under %d: the workload does not vary the answer count",
				a.name, len(qs), manyAnswers, DefaultMaxAnswers, fewAnswers, few)
		}
		perAnswer := (manyAllocs - fewAllocs) / float64(manyAnswers-fewAnswers)
		t.Logf("%s, %d asks: %.0f allocations for %d answers, %.0f for %d: %.3f allocations per extra answer",
			a.name, len(qs), fewAllocs, fewAnswers, manyAllocs, manyAnswers, perAnswer)
		if perAnswer > 0.01 {
			t.Errorf("%s: %.3f allocations per extra answer, want 0", a.name, perAnswer)
		}
	}
}
