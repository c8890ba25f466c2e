package repro

import (
	"sync"
	"testing"

	"repro/internal/boolean"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rank"
	"repro/internal/schema"
)

// The three micro-benchmarks below measure the paper's partial-answer
// units of work in process. End-to-end numbers (HTTP envelope, front
// tier, ingest) come from the benchmark in bench/.

// benchEnv is built once and shared: every benchmark measures work
// against the same populated environment.
var (
	benchOnce sync.Once
	benchE    *experiments.Env
	benchErr  error
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchE, benchErr = experiments.NewEnv(42, 500)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchE
}

// BenchmarkPartialAnswers isolates the partial-match pipeline: the
// N−1 relaxation sweep plus Rank_Sim scoring and top-K selection.
// MultiCond exercises the relaxed-query path of Sec. 4.3.1; SingleCond
// exercises the whole-table similarity fallback, where candidate
// selection dominates.
func BenchmarkPartialAnswers(b *testing.B) {
	e := env(b)
	cases := map[string]string{
		"MultiCond":  "Find Honda Accord blue less than 15,000 dollars",
		"SingleCond": "blue car",
	}
	for name, q := range cases {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.System.AskInDomain("cars", q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRankers measures each comparison approach ranking the full
// cars table for one query (their Figure 6 unit of work).
func BenchmarkRankers(b *testing.B) {
	e := env(b)
	tbl, _ := e.DB.TableForDomain("cars")
	conds := carsConds()
	query := &rank.Query{Text: "honda accord blue under 15000 dollars", Conds: conds}
	all := tbl.AllRowIDs()
	rankers := []rank.Ranker{
		e.System.RankerForDomain("cars"),
		rank.Cosine{},
		rank.NewAIMQ(tbl),
		rank.NewFAQFinder(tbl),
		&rank.Random{Seed: 1},
	}
	for _, r := range rankers {
		b.Run(r.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Rank(query, tbl, all)
			}
		})
	}
}

// BenchmarkRelaxationDepth compares the N−1 strategy against N−2
// (Sec. 4.3.1's cost argument).
func BenchmarkRelaxationDepth(b *testing.B) {
	e := env(b)
	for name, depth := range map[string]int{"N-1": 1, "N-2": 2} {
		sys, err := coreSystem(e, depth)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.AskInDomain("cars", "red manual bmw m3 less than $9000"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// helpers

// carsConds is the Table 2 question's condition set.
func carsConds() []boolean.Condition {
	return []boolean.Condition{
		{Attr: "make", Type: schema.TypeI, Values: []string{"honda"}},
		{Attr: "model", Type: schema.TypeI, Values: []string{"accord"}},
		{Attr: "color", Type: schema.TypeII, Values: []string{"blue"}},
		{Attr: "price", Type: schema.TypeIII, Op: boolean.OpLt, X: 15000},
	}
}

// coreSystem rebuilds a System over the env's substrates with a given
// relaxation depth.
func coreSystem(e *experiments.Env, depth int) (*core.System, error) {
	return core.New(core.Config{
		DB: e.DB, TI: e.TI, WS: e.WS, RelaxationDepth: depth,
	})
}
