package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/boolean"
	"repro/internal/questions"
	"repro/internal/rank"
	"repro/internal/sql"
	"repro/internal/sql/sqltest"
	"repro/internal/sqldb"
)

// TestPipelineNeverFailsOnArbitraryText feeds garbage, fragments and
// adversarial strings through the full pipeline: the system must
// return (possibly empty) results, never an error or panic.
func TestPipelineNeverFailsOnArbitraryText(t *testing.T) {
	sys := testSystem(t)
	inputs := []string{
		"",
		"   ",
		"?!?!?!",
		"ooooooooooooooooooooooooooooooooooooo",
		"' OR 1=1 --",
		"select * from car_ads",
		"honda honda honda honda honda",
		"not not not not blue",
		"less than less than more than",
		"between and between and",
		"$$$ ### 12 34 56 78",
		"ÿüñïçôdé quëstiòn",
		"cheapest cheapest newest oldest",
		"0 0 0 0 0 0",
		"and or and or and or",
		"-5000 dollars",
		strings.Repeat("blue red ", 200),
	}
	for _, q := range inputs {
		res, err := sys.AskInDomain("cars", q)
		if err != nil {
			t.Errorf("AskInDomain(%q) error: %v", q, err)
			continue
		}
		if len(res.Answers) > DefaultMaxAnswers {
			t.Errorf("AskInDomain(%q): %d answers", q, len(res.Answers))
		}
	}
}

// TestPipelineNeverFailsOnRandomWordSalad shuffles schema vocabulary,
// operators and numbers into random questions.
func TestPipelineNeverFailsOnRandomWordSalad(t *testing.T) {
	sys := testSystem(t)
	rng := rand.New(rand.NewSource(99))
	vocab := []string{
		"honda", "accord", "blue", "red", "automatic", "2 door",
		"less", "than", "more", "between", "and", "or", "not",
		"cheapest", "newest", "$5000", "2004", "20k", "miles",
		"dollars", "under", "above", "year", "price", "mileage",
		"xyzzy", "the", "a",
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = vocab[rng.Intn(len(vocab))]
		}
		q := strings.Join(parts, " ")
		if _, err := sys.AskInDomain("cars", q); err != nil {
			t.Fatalf("trial %d: AskInDomain(%q): %v", trial, q, err)
		}
	}
}

// TestGeneratedQuestionsRoundTrip is the ground-truth integration
// check: for clean generated questions, the pipeline's interpretation
// must recover the generator's intent almost always, and the exact
// answers must actually satisfy it.
func TestGeneratedQuestionsRoundTrip(t *testing.T) {
	sys := testSystem(t)
	tbl, _ := sys.DB().TableForDomain("cars")
	gen := questions.NewGenerator(tbl, 55)
	qs := gen.Generate(150, questions.CleanOptions())
	recovered := 0
	for _, q := range qs {
		res, err := sys.AskInDomain("cars", q.Text)
		if err != nil {
			t.Fatalf("AskInDomain(%q): %v", q.Text, err)
		}
		truth := &boolean.Interpretation{Groups: q.TruthGroups(), Superlative: q.Superlative}
		if boolean.InterpretationsAgree(res.Interpretation, truth) {
			recovered++
		}
		// Exact answers must satisfy the system's own interpretation.
		for _, a := range res.Answers[:res.ExactCount] {
			ok := false
			for gi := range res.Interpretation.Groups {
				if rank.SatisfiesAll(tbl, a.ID, res.Interpretation.Groups[gi].Conds) {
					ok = true
					break
				}
			}
			if !ok && res.Interpretation.Superlative == nil {
				t.Errorf("exact answer %d violates interpretation of %q", a.ID, q.Text)
			}
		}
	}
	rate := float64(recovered) / float64(len(qs))
	if rate < 0.9 {
		t.Errorf("interpretation recovery rate = %.2f, want >= 0.9", rate)
	}
}

// TestGeneratedSQLTextMatchesExecution: the SQL string surfaced in
// Result must, when parsed and executed through the text path,
// reproduce exactly the exact-answer set the pipeline returned
// (superlative questions excluded — their extreme-set filter is
// applied by the executor wrapper, not the SQL).
func TestGeneratedSQLTextMatchesExecution(t *testing.T) {
	sys := testSystem(t)
	tbl, _ := sys.DB().TableForDomain("cars")
	gen := questions.NewGenerator(tbl, 77)
	qs := gen.Generate(150, questions.DefaultOptions())
	checked := 0
	for _, q := range qs {
		res, err := sys.AskInDomain("cars", q.Text)
		if err != nil {
			t.Fatal(err)
		}
		if res.SQL == "" || res.Interpretation.Superlative != nil {
			continue
		}
		sel, err := sqltest.Parse(res.SQL)
		if err != nil {
			t.Fatalf("surfaced SQL does not parse: %v\n%s", err, res.SQL)
		}
		ids, err := sql.Exec(sys.DB(), sel)
		if err != nil {
			t.Fatalf("surfaced SQL does not execute: %v\n%s", err, res.SQL)
		}
		if len(ids) != res.ExactCount {
			t.Fatalf("SQL text returned %d rows, pipeline had %d exact\n%s",
				len(ids), res.ExactCount, res.SQL)
		}
		for i, a := range res.Answers[:res.ExactCount] {
			if ids[i] != a.ID {
				t.Fatalf("row %d differs: %d vs %d\n%s", i, ids[i], a.ID, res.SQL)
			}
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d questions checked", checked)
	}
}

// TestAnswersAreUniqueIDs: no answer list ever repeats a record.
func TestAnswersAreUniqueIDs(t *testing.T) {
	sys := testSystem(t)
	for _, q := range []string{
		"Find Honda Accord blue less than 15,000 dollars",
		"red car",
		"cheapest honda",
		"Honda accord 2000",
	} {
		res, err := sys.AskInDomain("cars", q)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[sqldb.RowID]bool{}
		for _, a := range res.Answers {
			if seen[a.ID] {
				t.Errorf("%q: duplicate answer id %d", q, a.ID)
			}
			seen[a.ID] = true
		}
	}
}
