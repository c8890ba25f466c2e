package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/cqads"
)

func testInputs(t *testing.T, spec workloadSpec, seed int64) *inputs {
	t.Helper()
	sys, err := cqads.Open(cqads.Options{Seed: seed, AdsPerDomain: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	in, err := makeInputs(spec, seed, sys.DB())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	spec, _ := workloadByName(wlAskSmall)
	a, b := testInputs(t, spec, 42), testInputs(t, spec, 42)
	if len(a.paths) != paperQuestions {
		t.Fatalf("%d questions, want %d", len(a.paths), paperQuestions)
	}
	if strings.Join(a.paths, "\n") != strings.Join(b.paths, "\n") {
		t.Error("same seed gave different question paths")
	}
	c := testInputs(t, spec, 7)
	if strings.Join(a.paths, "\n") == strings.Join(c.paths, "\n") {
		t.Error("seeds 42 and 7 gave the same questions")
	}
}

func TestQuestionCounts(t *testing.T) {
	paper := questionCounts(paperQuestions)
	total := 0
	for _, n := range paper {
		total += n
	}
	if paper[0] != paperCars || total != paperQuestions {
		t.Errorf("paper split %v: want %d cars of %d", paper, paperCars, paperQuestions)
	}
	for i, n := range questionCounts(20000) {
		if n != 2500 {
			t.Errorf("even split: domain %d gets %d, want 2500", i, n)
		}
	}
}

func TestWriteBodiesDeterministicPerSeedAndClient(t *testing.T) {
	join := func(bodies []writeBody) []byte {
		var all [][]byte
		for _, b := range bodies {
			all = append(all, b.body)
		}
		return bytes.Join(all, []byte("\n"))
	}
	a, b := makeWriteBodies(42, 0), makeWriteBodies(42, 0)
	if !bytes.Equal(join(a), join(b)) {
		t.Error("same seed and client gave different ad bodies")
	}
	if bytes.Equal(join(a), join(makeWriteBodies(7, 0))) {
		t.Error("seeds 42 and 7 gave the same ad bodies")
	}
	if bytes.Equal(join(a), join(makeWriteBodies(42, 1))) {
		t.Error("clients 0 and 1 gave the same ad bodies")
	}
	if a[0].domain == a[1].domain {
		t.Errorf("consecutive ads share domain %q: domains should go round-robin", a[0].domain)
	}
}

func TestCheckStructure(t *testing.T) {
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"exact then partial, falling", `{"exact_count":1,"answers":[{"exact":true,"rank_sim":3},{"exact":false,"rank_sim":2.5},{"exact":false,"rank_sim":2.5},{"exact":false,"rank_sim":1}]}`, true},
		{"empty", `{"exact_count":0,"answers":[]}`, true},
		{"partial before exact", `{"exact_count":1,"answers":[{"exact":false,"rank_sim":2},{"exact":true,"rank_sim":3}]}`, false},
		{"rank_sim rises", `{"exact_count":0,"answers":[{"exact":false,"rank_sim":1},{"exact":false,"rank_sim":2}]}`, false},
		{"exact_count too large", `{"exact_count":2,"answers":[{"exact":true,"rank_sim":1}]}`, false},
		{"not JSON", `<html>`, false},
	} {
		if err := checkStructure([]byte(c.body)); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	var many strings.Builder
	many.WriteString(`{"exact_count":0,"answers":[`)
	for i := 0; i <= cqads.DefaultMaxAnswers; i++ {
		if i > 0 {
			many.WriteByte(',')
		}
		many.WriteString(`{"exact":false,"rank_sim":1}`)
	}
	many.WriteString(`]}`)
	if err := checkStructure([]byte(many.String())); err == nil {
		t.Errorf("%d answers passed the %d cap", cqads.DefaultMaxAnswers+1, cqads.DefaultMaxAnswers)
	}
}
