package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/questions"
	"repro/internal/schema"
	"repro/internal/work"
)

var updateWork = flag.Bool("update", false, "rewrite testdata/work.golden from the current code")

// workShapes are the ask shapes the work counts are summed by, in the
// order askShape tests them.
var workShapes = []string{"nothing-recognised", "superlative", "all-exact", "single-condition", "relaxation"}

// askShape names the shape of an answered ask: nothing recognised (no
// SQL), a superlative, MaxAnswers exact answers, a relaxation of a
// single condition (similarity over the table) or of n ≥ 2.
func askShape(res *Result, maxAnswers int) string {
	switch {
	case res.SQL == "":
		return "nothing-recognised"
	case res.Interpretation.Superlative != nil:
		return "superlative"
	case res.ExactCount == maxAnswers:
		return "all-exact"
	case res.Interpretation.ConditionCount() == 1:
		return "single-condition"
	}
	return "relaxation"
}

// paperPool generates the paper's 650-question split over cfg's corpus
// (80 cars questions, 570 across the other seven domains) with the
// generator seeds a seed-42 evaluation uses, each with its domain.
func paperPool(t *testing.T, cfg Config) []domainQuestion {
	t.Helper()
	const carsCount, othersTotal = 80, 570
	perOther := othersTotal / (len(schema.DomainNames) - 1)
	extra := othersTotal % (len(schema.DomainNames) - 1)
	var out []domainQuestion
	for i, d := range schema.DomainNames {
		n := perOther
		if d == "cars" {
			n = carsCount
		} else if i <= extra {
			n++
		}
		tbl, _ := cfg.DB.TableForDomain(d)
		for _, q := range questions.NewGenerator(tbl, 42+404+int64(i)).Generate(n, questions.DefaultOptions()) {
			out = append(out, domainQuestion{d, q.Text})
		}
	}
	if len(out) != carsCount+othersTotal {
		t.Fatalf("the pool has %d questions, want %d", len(out), carsCount+othersTotal)
	}
	return out
}

// TestWorkCounts pins the work the 650-question paper pool does on the
// 8×500 seed-42 corpus, summed per ask shape, to testdata/work.golden:
// ids copied from postings and live slots, cells read, relaxation tally
// increments, candidates scored and similarity evaluations. The counts
// do not depend on the machine, so they match exactly. A change that
// moves them rewrites the file with -update, and its diff shows how
// much work the change added or saved.
func TestWorkCounts(t *testing.T) {
	cfg := smallConfig(t)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	asks := map[string]int{}
	totals := map[string]work.Totals{}
	for _, dq := range paperPool(t, cfg) {
		before := sys.work.Read()
		res, err := sys.AskInDomain(dq.domain, dq.q)
		if err != nil {
			t.Fatalf("%s %q: %v", dq.domain, dq.q, err)
		}
		after := sys.work.Read()
		shape := askShape(res, sys.maxAnswers)
		sum := totals[shape]
		sum.Postings += after.Postings - before.Postings
		sum.Cells += after.Cells - before.Cells
		sum.Tally += after.Tally - before.Tally
		sum.Scored += after.Scored - before.Scored
		sum.Sims += after.Sims - before.Sims
		totals[shape] = sum
		asks[shape]++
	}
	var got bytes.Buffer
	fmt.Fprintln(&got, "# Work of the 650-question paper pool on the 8x500 seed-42 corpus, per ask shape.")
	fmt.Fprintln(&got, "# Rewrite with: go test ./internal/core -run TestWorkCounts -update")
	fmt.Fprintf(&got, "%-18s %5s %9s %9s %9s %9s %9s\n", "shape", "asks", "postings", "cells", "tally", "scored", "sims")
	for _, shape := range workShapes {
		w := totals[shape]
		fmt.Fprintf(&got, "%-18s %5d %9d %9d %9d %9d %9d\n", shape, asks[shape], w.Postings, w.Cells, w.Tally, w.Scored, w.Sims)
	}
	path := filepath.Join("testdata", "work.golden")
	if *updateWork {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("work counts differ from %s (rewrite it with -update if the change is meant to move them)\ngot:\n%swant:\n%s", path, got.Bytes(), want)
	}
}
