package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/boolean"
	"repro/internal/qlog"
	"repro/internal/schema"
	"repro/internal/wsmatrix"
)

// testSystem builds a full system over cars + motorcycles with all
// similarity substrates.
func testSystem(t *testing.T) *System {
	t.Helper()
	db, err := adsgen.PopulateAll(42, 400)
	if err != nil {
		t.Fatal(err)
	}
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

// assertSameResult fails t unless got answers as want does: the same
// domain, interpretation, SQL and exact count, and answer for answer
// the same row id, exactness, Rank_Sim bits, dropped condition,
// similarity label and record cells, in order.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Domain != want.Domain || got.Interpretation.String() != want.Interpretation.String() ||
		got.SQL != want.SQL || got.ExactCount != want.ExactCount || len(got.Answers) != len(want.Answers) {
		t.Fatalf("%s: got %s [%s] %q with %d answers (%d exact), want %s [%s] %q with %d (%d exact)", label,
			got.Domain, got.Interpretation, got.SQL, len(got.Answers), got.ExactCount,
			want.Domain, want.Interpretation, want.SQL, len(want.Answers), want.ExactCount)
	}
	for i := range got.Answers {
		g, w := got.Answers[i], want.Answers[i]
		same := g.ID == w.ID && g.Exact == w.Exact && math.Float64bits(g.RankSim) == math.Float64bits(w.RankSim) &&
			g.DroppedCond == w.DroppedCond && g.SimilarityUsed == w.SimilarityUsed && g.Record.Len() == w.Record.Len()
		for c := 0; same && c < g.Record.Len(); c++ {
			same = g.Record.At(c) == w.Record.At(c)
		}
		if !same {
			t.Fatalf("%s: answer %d differs:\n got {id %d exact %v sim %v drop %d %q} %v\nwant {id %d exact %v sim %v drop %d %q} %v", label, i,
				g.ID, g.Exact, g.RankSim, g.DroppedCond, g.SimilarityUsed, g.Record.Record(),
				w.ID, w.Exact, w.RankSim, w.DroppedCond, w.SimilarityUsed, w.Record.Record())
		}
	}
}

func ask(t *testing.T, sys *System, q string) *Result {
	t.Helper()
	res, err := sys.AskInDomain("cars", q)
	if err != nil {
		t.Fatalf("AskInDomain(%q): %v", q, err)
	}
	return res
}

func TestExactAnswersSatisfyAllConditions(t *testing.T) {
	sys := testSystem(t)
	res := ask(t, sys, "Do you have a 2 door red BMW?")
	if res.ExactCount == 0 {
		t.Fatal("no exact answers")
	}
	for _, a := range res.Answers[:res.ExactCount] {
		if a.Record.Value("make").Str() != "bmw" ||
			a.Record.Value("color").Str() != "red" ||
			a.Record.Value("doors").Str() != "2 door" {
			t.Errorf("exact answer violates conditions: %v", a.Record)
		}
		if !a.Exact || a.DroppedCond != -1 {
			t.Errorf("exact answer flags wrong: %+v", a)
		}
	}
}

func TestAnswerCutoffAt30(t *testing.T) {
	sys := testSystem(t)
	res := ask(t, sys, "red car") // broad: many exact matches
	if len(res.Answers) > DefaultMaxAnswers {
		t.Errorf("answers = %d, cutoff is %d", len(res.Answers), DefaultMaxAnswers)
	}
}

func TestPartialAnswersFillAndAreRanked(t *testing.T) {
	sys := testSystem(t)
	res := ask(t, sys, "Find Honda Accord blue less than 15,000 dollars")
	if len(res.Answers) != DefaultMaxAnswers {
		t.Fatalf("answers = %d, want %d", len(res.Answers), DefaultMaxAnswers)
	}
	// Partial answers are sorted by descending Rank_Sim.
	partial := res.Answers[res.ExactCount:]
	for i := 1; i < len(partial); i++ {
		if partial[i-1].RankSim < partial[i].RankSim {
			t.Fatalf("partial answers not sorted at %d: %g < %g",
				i, partial[i-1].RankSim, partial[i].RankSim)
		}
	}
	// Every partial answer names the similarity measure used.
	for _, a := range partial {
		if a.SimilarityUsed == "" {
			t.Errorf("partial answer missing similarity label: %+v", a.ID)
		}
		n := float64(res.Interpretation.ConditionCount())
		if a.RankSim < n-1-1e-9 || a.RankSim > n {
			t.Errorf("Rank_Sim %g outside [N-1,N]", a.RankSim)
		}
	}
}

func TestSuperlativeEvaluatedLast(t *testing.T) {
	// "cheapest Honda": evaluating 'Honda' first then 'cheapest'
	// yields the cheapest Hondas (Sec. 4.3's argument).
	sys := testSystem(t)
	res := ask(t, sys, "cheapest honda")
	if res.ExactCount == 0 {
		t.Fatal("no answers")
	}
	tbl, _ := sys.DB().TableForDomain("cars")
	// Find the true minimum price among hondas.
	minPrice := -1.0
	for _, id := range tbl.AllRowIDs() {
		if tbl.Value(id, "make").Str() != "honda" {
			continue
		}
		p := tbl.Value(id, "price").Num()
		if minPrice < 0 || p < minPrice {
			minPrice = p
		}
	}
	for _, a := range res.Answers[:res.ExactCount] {
		if a.Record.Value("make").Str() != "honda" {
			t.Errorf("superlative answer is not a honda: %v", a.Record)
		}
		if a.Record.Value("price").Num() != minPrice {
			t.Errorf("cheapest honda price = %v, want %g", a.Record.Value("price"), minPrice)
		}
	}
}

func TestIncompleteQuestionUnioned(t *testing.T) {
	// "Honda accord 2000": 2000 reads as year, price or mileage
	// (Example 3); the groups are unioned.
	sys := testSystem(t)
	res := ask(t, sys, "Honda accord 2000")
	if got := len(res.Interpretation.Groups); got != 3 {
		t.Fatalf("groups = %d, want 3 (%s)", got, res.Interpretation)
	}
	attrs := map[string]bool{}
	for _, g := range res.Interpretation.Groups {
		for _, c := range g.Conds {
			if c.IsNumeric() {
				attrs[c.Attr] = true
			}
		}
	}
	for _, want := range []string{"year", "price", "mileage"} {
		if !attrs[want] {
			t.Errorf("missing union branch for %s", want)
		}
	}
}

func TestIncompleteQuestionRangeFiltered(t *testing.T) {
	// "less than 4000": year is out (4000 not a valid year).
	sys := testSystem(t)
	res := ask(t, sys, "Honda accord less than 4000")
	for _, g := range res.Interpretation.Groups {
		for _, c := range g.Conds {
			if c.IsNumeric() && c.Attr == "year" {
				t.Errorf("4000 treated as year: %s", res.Interpretation)
			}
		}
	}
}

func TestSpellingAndSpaceRepairEndToEnd(t *testing.T) {
	sys := testSystem(t)
	clean := ask(t, sys, "honda accord less than $9000")
	damaged := ask(t, sys, "Hondaaccord less thann $9000")
	if clean.Interpretation.String() != damaged.Interpretation.String() {
		t.Errorf("repair diverged:\n clean   %s\n damaged %s",
			clean.Interpretation, damaged.Interpretation)
	}
}

func TestContradictionReturnsNoResults(t *testing.T) {
	sys := testSystem(t)
	res := ask(t, sys, "price below $2000 and above $9000")
	if !res.Interpretation.Empty {
		t.Fatalf("interpretation = %s", res.Interpretation)
	}
	if len(res.Answers) != 0 {
		t.Errorf("contradictory question returned %d answers", len(res.Answers))
	}
}

func TestAskClassifiesDomain(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.Ask("anything"); err == nil {
		t.Error("Ask without classifier should error")
	}
}

func TestUnknownDomain(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.AskInDomain("ghost", "q"); err == nil {
		t.Error("unknown domain should error")
	}
}

func TestGeneratedSQLParsesAndMentionsConditions(t *testing.T) {
	sys := testSystem(t)
	res := ask(t, sys, "blue automatic toyota under $9000")
	if !strings.Contains(res.SQL, "SELECT * FROM car_ads WHERE") {
		t.Errorf("SQL = %q", res.SQL)
	}
	for _, want := range []string{"toyota", "blue", "automatic", "price < 9000", "LIMIT 30"} {
		if !strings.Contains(res.SQL, want) {
			t.Errorf("SQL missing %q: %s", want, res.SQL)
		}
	}
}

func TestResolveIncompleteImpossibleValue(t *testing.T) {
	// A number fitting no attribute range yields no answers.
	sch := schema.Cars()
	in := &boolean.Interpretation{Groups: []boolean.Group{{Conds: []boolean.Condition{
		{Attr: "", Type: schema.TypeIII, Op: boolean.OpEq, X: 9e9},
	}}}}
	out := ResolveIncomplete(sch, in)
	if len(out.Groups) != 1 {
		t.Fatalf("groups = %d", len(out.Groups))
	}
	c := out.Groups[0].Conds[0]
	if c.Attr == "" {
		t.Error("impossible condition should be anchored to an unsatisfiable bound")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without DB should error")
	}
}

func TestRelaxationDepth2FindsMore(t *testing.T) {
	db, err := adsgen.PopulateAll(42, 400)
	if err != nil {
		t.Fatal(err)
	}
	sys1, _ := New(Config{DB: db, RelaxationDepth: 1})
	sys2, _ := New(Config{DB: db, RelaxationDepth: 2, MaxAnswers: 1000})
	q := "red manual bmw m3 less than $9000"
	r1, err := sys1.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys2.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Answers) < len(r1.Answers) {
		t.Errorf("depth 2 found fewer candidates (%d) than depth 1 (%d)",
			len(r2.Answers), len(r1.Answers))
	}
}
