package repro

import (
	"sync"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/boolean"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/experiments"
	"repro/internal/qlog"
	"repro/internal/rank"
	"repro/internal/schema"
	"repro/internal/schemagen"
	"repro/internal/sql"
	"repro/internal/sql/sqltest"
	"repro/internal/sqldb"
	"repro/internal/trie"
	"repro/internal/wsmatrix"
)

// benchEnv is built once and shared: every table/figure benchmark
// measures work against the same populated environment.
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

// BenchmarkFig2Classification regenerates Figure 2: classifying the
// 650 test questions into their eight ads domains.
func BenchmarkFig2Classification(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Fig2Classification(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactMatch regenerates the Sec. 5.3 experiment: full
// pipeline evaluation of the 650 questions with P/R/F scoring.
func BenchmarkExactMatch(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExactMatch(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Boolean regenerates Figure 4: interpreting the ten
// Boolean survey questions and collecting simulated votes.
func BenchmarkFig4Boolean(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Fig4Boolean(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2: the running-example question
// with its top-5 ranked partial answers.
func BenchmarkTable2(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Table2PartialAnswers(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Ranking regenerates Figure 5: the five ranking
// approaches over 40 questions with the appraiser panel.
func BenchmarkFig5Ranking(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Fig5Ranking(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Latency regenerates Figure 6 on a 10-question-per-
// domain subsample (the full sweep is the -exp fig6 command).
func BenchmarkFig6Latency(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Fig6Latency(10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShorthand regenerates the Sec. 4.2.3 experiment: 1,000
// shorthand detection decisions.
func BenchmarkShorthand(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ShorthandDetection(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Per-question microbenchmarks (the units behind Figure 6) ---

// BenchmarkAskExact measures one exactly-answerable question through
// the whole pipeline.
func BenchmarkAskExact(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.System.AskInDomain("cars", "red automatic toyota camry"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskPartial measures a question that triggers the N−1
// partial-matching path.
func BenchmarkAskPartial(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.System.AskInDomain("cars", "Find Honda Accord blue less than 15,000 dollars"); err != nil {
			b.Fatal(err)
		}
	}
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

// --- Ablation benchmarks (DESIGN.md Sec. 5) ---

// BenchmarkEvalOrder measures Sec. 4.3's evaluation-order argument
// under the planner's static rule — a conjunction is driven by its
// first index-served operand, in statement order — so the two
// statements really do run differently: the paper's Type I → II → III
// order drives the make hash lookup, the reverse drives the price
// range scan (and re-sorts its survivors).
func BenchmarkEvalOrder(b *testing.B) {
	e := env(b)
	db := e.DB
	ordered := "SELECT * FROM car_ads WHERE make = 'honda' AND color = 'blue' AND price < 15000"
	reversed := "SELECT * FROM car_ads WHERE price < 15000 AND color = 'blue' AND make = 'honda'"
	for name, q := range map[string]string{"TypeIFirst": ordered, "TypeIIIFirst": reversed} {
		sel, err := sqltest.Parse(q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sql.Exec(db, sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamingExec compares the three executor configurations on
// the multi-conjunct shape behind the partial-match path: the eager
// reference evaluator (materialize every operand's posting list, then
// intersect), the streaming executor compiling per call (driving-scan
// + residual pushdown), and the plan-cache steady state (compile once,
// re-bind literals per execution — what System question answering
// actually runs after warm-up).
func BenchmarkStreamingExec(b *testing.B) {
	e := env(b)
	db := e.DB
	sel, err := sqltest.Parse("SELECT * FROM car_ads WHERE make = 'honda' AND color = 'blue' AND price < 15000")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sqltest.ExecLegacy(db, sel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.Exec(db, sel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CachedPlan", func(b *testing.B) {
		p, err := sql.Compile(db, sel)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Run(db, sel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTrieVsMap compares trie tagging against a simple
// hash-map longest-match tagger, the data-structure choice argued in
// Sec. 4.1.3.
func BenchmarkTrieVsMap(b *testing.B) {
	s := schema.Cars()
	tagger := trie.NewTagger(s)
	words := map[string]bool{}
	for _, a := range s.Attrs {
		for _, v := range a.Values {
			words[v] = true
		}
	}
	question := "Cheapest 2dr mazda with automatic transmission less than 20k miles"
	b.Run("Trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tagger.Tag(question)
		}
	})
	b.Run("MapLookup", func(b *testing.B) {
		// Baseline: per-token map membership only (no phrases, no
		// repair) — the floor a trie must stay comparable to.
		for i := 0; i < b.N; i++ {
			n := 0
			for _, w := range splitBench(question) {
				if words[w] {
					n++
				}
			}
			_ = n
		}
	})
}

// BenchmarkClassifiers compares JBBSM and multinomial NB on one
// question (ablate-jbbsm's unit of work).
func BenchmarkClassifiers(b *testing.B) {
	e := env(b)
	mn := classify.NewMultinomial()
	for _, d := range schema.DomainNames {
		var docs [][]string
		for _, q := range e.Tests[d] {
			docs = append(docs, splitBench(q.Text))
		}
		mn.Train(d, docs)
	}
	doc := splitBench("cheapest red honda accord under 9000 dollars")
	b.Run("JBBSM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := e.Cls.Classify(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Multinomial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := mn.Classify(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// BenchmarkTIMatrixBuild measures TI-matrix construction from a
// 500-session query log.
func BenchmarkTIMatrixBuild(b *testing.B) {
	sim := qlog.NewSimulator(schema.Cars(), 42)
	log := sim.Simulate("cars", 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qlog.BuildTIMatrix(log)
	}
}

// BenchmarkWSMatrixBuild measures WS-matrix construction from the
// synthetic corpus.
func BenchmarkWSMatrixBuild(b *testing.B) {
	schemas := []*schema.Schema{schema.Cars(), schema.CSJobs()}
	corpus := wsmatrix.GenerateCorpus(schemas, 40, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wsmatrix.Build(corpus)
	}
}

// BenchmarkDedup measures near-duplicate detection over the cars
// table (Sec. 6 extension (iv)).
func BenchmarkDedup(b *testing.B) {
	e := env(b)
	tbl, _ := e.DB.TableForDomain("cars")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.View(func(v sqldb.View) { dedup.Dedup(v, dedup.DefaultOptions()) })
	}
}

// BenchmarkSchemaInference measures schema generation from 500 raw
// records (Sec. 6 extension (ii)).
func BenchmarkSchemaInference(b *testing.B) {
	e := env(b)
	tbl, _ := e.DB.TableForDomain("cars")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schemagen.InferFromTable("cars", "car_ads", tbl, schemagen.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataGeneration measures populating one 500-ad domain table.
func BenchmarkDataGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := sqldb.NewDB()
		if _, err := adsgen.NewGenerator(42).Populate(db, schema.Cars(), 500); err != nil {
			b.Fatal(err)
		}
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

func splitBench(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
