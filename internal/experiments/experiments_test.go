package experiments

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/schema"
)

// smallEnv is shared across experiment tests (construction builds
// eight domains, matrices and a trained classifier, so reuse it).
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func smallEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = NewEnv(42, 300)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestEnvShape(t *testing.T) {
	e := smallEnv(t)
	if got := e.TotalQuestions(); got != 650 {
		t.Errorf("test questions = %d, want 650 (80 cars + 570 others)", got)
	}
	if len(e.Tests["cars"]) != CarsQuestionCount {
		t.Errorf("cars questions = %d", len(e.Tests["cars"]))
	}
	for _, d := range schema.DomainNames {
		if e.TI[d] == nil || e.TI[d].Max() <= 0 {
			t.Errorf("TI matrix for %s missing/empty", d)
		}
	}
	if e.WS.Size() == 0 {
		t.Error("WS matrix empty")
	}
}

func TestExtensions(t *testing.T) {
	e := smallEnv(t)
	strict, err := e.StrictBoolean()
	if err != nil {
		t.Fatal(err)
	}
	if strict.Questions == 0 {
		t.Fatal("no explicit questions generated")
	}
	// The implicit rules must recover the survey-majority intent at
	// least as often as strict evaluation (the empirical basis for
	// the paper's Sec. 4.4.2 design choice).
	if strict.ImplicitCorrect < strict.StrictCorrect {
		t.Errorf("implicit %.2f < strict %.2f", strict.ImplicitCorrect, strict.StrictCorrect)
	}
	if strict.ImplicitCorrect < 0.9 {
		t.Errorf("implicit correctness = %.2f", strict.ImplicitCorrect)
	}

	dd, err := e.DedupImpact()
	if err != nil {
		t.Fatal(err)
	}
	if dd.AvgDupAnswersOn >= dd.AvgDupAnswersOff {
		t.Errorf("dedup did not reduce duplicate answers: %.2f -> %.2f",
			dd.AvgDupAnswersOff, dd.AvgDupAnswersOn)
	}
	if dd.AvgDupAnswersOn > 0.2 {
		t.Errorf("residual duplicates with dedup on: %.2f", dd.AvgDupAnswersOn)
	}
	// Detection should land close to the true listing count.
	drift := dd.DetectedGroups - dd.TrueListings
	if drift < -10 || drift > 10 {
		t.Errorf("detected %d groups, true %d", dd.DetectedGroups, dd.TrueListings)
	}

	sg, err := e.SchemaGen()
	if err != nil {
		t.Fatal(err)
	}
	if sg.Average < 0.8 {
		t.Errorf("schema inference average agreement = %.2f", sg.Average)
	}
	if sg.PerDomain["cars"] != 1 {
		t.Errorf("cars inference = %.2f, want 1.0", sg.PerDomain["cars"])
	}
}

// updateGolden rewrites EXPERIMENTS.md from the current code:
// go test ./internal/experiments -run TestWriteReport -update
var updateGolden = flag.Bool("update", false, "rewrite EXPERIMENTS.md from the current code")

// TestWriteReport: EXPERIMENTS.md at the module root is the untimed
// report of a fresh seed-42, 300-ads-per-domain environment, byte for
// byte. A change that moves any figure or table of Sec. 5 shows up as
// a diff of that file; regenerate it with -update and commit the diff
// with the change that caused it.
func TestWriteReport(t *testing.T) {
	e, err := NewEnv(42, 300)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = "../../EXPERIMENTS.md"
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			w = exp[i]
		}
		if g != w {
			t.Fatalf("report differs from %s at line %d (rerun with -update if the change is intended):\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}

func TestAblations(t *testing.T) {
	e := smallEnv(t)
	jb, err := e.AblateJBBSM()
	if err != nil {
		t.Fatal(err)
	}
	if jb.JBBSM < 0.75 || jb.Multinomial < 0.5 {
		t.Errorf("classifier ablation degenerate: %+v", jb)
	}
	depth, err := e.AblateDepth()
	if err != nil {
		t.Fatal(err)
	}
	if len(depth.Rows) != 2 {
		t.Fatalf("depth rows = %d", len(depth.Rows))
	}
	if depth.Rows[1].AvgAnswers < depth.Rows[0].AvgAnswers {
		t.Error("N-2 should never find fewer answers than N-1")
	}
	repair, err := e.AblateRepair()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range repair.Rows {
		if row.WithRepair < row.NoRepair {
			t.Errorf("noise %.2f: repair hurt recovery (%.2f < %.2f)",
				row.NoiseRate, row.WithRepair, row.NoRepair)
		}
	}
	last := repair.Rows[len(repair.Rows)-1]
	if last.WithRepair-last.NoRepair < 0.3 {
		t.Errorf("repair should matter at full noise: %.2f vs %.2f",
			last.WithRepair, last.NoRepair)
	}

	cutoff, err := e.AblateCutoff()
	if err != nil {
		t.Fatal(err)
	}
	if len(cutoff.Rows) != 4 {
		t.Fatalf("cutoff rows = %d", len(cutoff.Rows))
	}
	for i := 1; i < len(cutoff.Rows); i++ {
		if cutoff.Rows[i].AvgRecall < cutoff.Rows[i-1].AvgRecall-1e-9 {
			t.Error("recall should be non-decreasing in the cutoff")
		}
	}
}
