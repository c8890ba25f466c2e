package experiments

import (
	"fmt"
	"io"
)

// untimed is a result that can render itself without wall-clock
// timings.
type untimed interface{ Untimed() string }

// WriteReport runs every experiment and writes a self-contained
// markdown report to w: the regenerated tables and figures, the
// ablations, and the extension measurements. The report is a function
// of the seed and the ads per domain alone: no timestamp, no timing
// columns, and Figure 6 as the ordering of the approaches only
// (cmd/experiments -exp prints the latencies). Its seed-42, 300-ads
// form is committed as EXPERIMENTS.md and checked byte for byte by a
// test.
func (e *Env) WriteReport(w io.Writer) error {
	type section struct {
		title string
		run   func() (fmt.Stringer, error)
	}
	sections := []section{
		{"Figure 2 — question classification", func() (fmt.Stringer, error) { return e.Fig2Classification() }},
		{"Sec. 5.3 — exact-match retrieval", func() (fmt.Stringer, error) { return e.ExactMatch() }},
		{"Figure 4 — Boolean interpretation", func() (fmt.Stringer, error) { return e.Fig4Boolean() }},
		{"Table 2 — ranked partial answers", func() (fmt.Stringer, error) { return e.Table2PartialAnswers() }},
		{"Figure 5 — ranking comparison", func() (fmt.Stringer, error) { return e.Fig5Ranking() }},
		{"Sec. 5.5.3 — per-domain ranking", func() (fmt.Stringer, error) { return e.Fig5PerDomain() }},
		{"Figure 6 — query processing time", func() (fmt.Stringer, error) { return e.Fig6Latency(0) }},
		{"Sec. 4.2.3 — shorthand detection", func() (fmt.Stringer, error) { return e.ShorthandDetection() }},
		{"Ablation — JBBSM vs multinomial", func() (fmt.Stringer, error) { return e.AblateJBBSM() }},
		{"Ablation — relaxation depth", func() (fmt.Stringer, error) { return e.AblateDepth() }},
		{"Ablation — repair machinery", func() (fmt.Stringer, error) { return e.AblateRepair() }},
		{"Ablation — answer cutoff", func() (fmt.Stringer, error) { return e.AblateCutoff() }},
		{"Extension — strict Boolean", func() (fmt.Stringer, error) { return e.StrictBoolean() }},
		{"Extension — de-duplication", func() (fmt.Stringer, error) { return e.DedupImpact() }},
		{"Extension — schema generation", func() (fmt.Stringer, error) { return e.SchemaGen() }},
	}

	if _, err := fmt.Fprintf(w, "# CQAds reproduction report\n\nseed %d · %d ads per domain · %d questions\n\n"+
		"Generated by `go run ./cmd/experiments -seed %[1]d -ads %[2]d -report EXPERIMENTS.md`;\n"+
		"`go test ./internal/experiments -run TestWriteReport` checks it byte for byte.\n\n",
		e.Seed, e.AdsPerDomain, e.TotalQuestions()); err != nil {
		return err
	}
	for _, s := range sections {
		res, err := s.run()
		if err != nil {
			return fmt.Errorf("experiments: report section %q: %w", s.title, err)
		}
		text := res.String()
		if u, ok := res.(untimed); ok {
			text = u.Untimed()
		}
		if _, err := fmt.Fprintf(w, "## %s\n\n```\n%s```\n\n", s.title, text); err != nil {
			return err
		}
	}
	return nil
}
