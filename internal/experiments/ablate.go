package experiments

import (
	"fmt"
	"strings"

	"repro/internal/boolean"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/questions"
	"repro/internal/schema"
	"repro/internal/trie"
)

// AblateJBBSMResult compares JBBSM against plain multinomial Naive
// Bayes on the classification task (DESIGN.md ablation).
type AblateJBBSMResult struct {
	JBBSM, Multinomial float64
	Total              int
}

// AblateJBBSM trains a multinomial NB on the same training sample and
// evaluates both classifiers on the test questions.
func (e *Env) AblateJBBSM() (*AblateJBBSMResult, error) {
	mn := classify.NewMultinomial()
	for _, d := range schema.DomainNames {
		tbl, _ := e.DB.TableForDomain(d)
		gen := questions.NewGenerator(tbl, e.Seed+303+int64(len(d)))
		train := gen.Generate(TrainPerDomain, questions.DefaultOptions())
		docs := make([][]string, len(train))
		for i := range train {
			docs[i] = classifyTokens(train[i].Text)
		}
		mn.Train(d, docs)
	}
	jbCorrect, mnCorrect, total := 0, 0, 0
	for _, d := range schema.DomainNames {
		for _, q := range e.Tests[d] {
			doc := classifyTokens(q.Text)
			if got, _, err := e.Cls.Classify(doc); err == nil && got == d {
				jbCorrect++
			}
			if got, _, err := mn.Classify(doc); err == nil && got == d {
				mnCorrect++
			}
			total++
		}
	}
	return &AblateJBBSMResult{
		JBBSM:       metrics.Accuracy(jbCorrect, total),
		Multinomial: metrics.Accuracy(mnCorrect, total),
		Total:       total,
	}, nil
}

// String renders the comparison.
func (r *AblateJBBSMResult) String() string {
	return fmt.Sprintf("Ablation — classifier likelihood: JBBSM %.1f%% vs multinomial %.1f%% (%d questions)\n",
		100*r.JBBSM, 100*r.Multinomial, r.Total)
}

// AblateDepthResult compares the N−1 strategy against N−2 relaxation:
// candidate pool sizes and end-to-end latency, the cost/benefit
// trade-off Sec. 4.3.1 argues about.
type AblateDepthResult struct {
	Rows []AblateDepthRow
}

// AblateDepthRow is one relaxation depth's aggregates.
type AblateDepthRow struct {
	Depth           int
	AvgAnswers      float64
	AvgPartial      float64
	AvgMicroseconds float64
}

// AblateDepth runs a cars-domain sample at depths 1 and 2.
func (e *Env) AblateDepth() (*AblateDepthResult, error) {
	res := &AblateDepthResult{}
	for _, depth := range []int{1, 2} {
		sys, err := core.New(core.Config{
			DB: e.DB, TI: e.TI, WS: e.WS, RelaxationDepth: depth,
		})
		if err != nil {
			return nil, err
		}
		var answers, partial, micros float64
		n := 0
		for _, q := range e.Tests["cars"] {
			if len(q.Conds) < 3 {
				continue
			}
			r, err := sys.AskInDomain("cars", q.Text)
			if err != nil {
				return nil, err
			}
			answers += float64(len(r.Answers))
			partial += float64(len(r.Answers) - r.ExactCount)
			micros += float64(r.Elapsed.Microseconds())
			n++
		}
		if n == 0 {
			continue
		}
		res.Rows = append(res.Rows, AblateDepthRow{
			Depth:           depth,
			AvgAnswers:      answers / float64(n),
			AvgPartial:      partial / float64(n),
			AvgMicroseconds: micros / float64(n),
		})
	}
	return res, nil
}

// String renders the depth ablation.
func (r *AblateDepthResult) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — relaxation depth (cars, questions with ≥3 conditions)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  N-%d: %.1f answers (%.1f partial), %.0f µs avg\n",
			row.Depth, row.AvgAnswers, row.AvgPartial, row.AvgMicroseconds)
	}
	return sb.String()
}

// Untimed renders the depth ablation without its latency column.
func (r *AblateDepthResult) Untimed() string {
	var sb strings.Builder
	sb.WriteString("Ablation — relaxation depth (cars, questions with ≥3 conditions)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  N-%d: %.1f answers (%.1f partial)\n", row.Depth, row.AvgAnswers, row.AvgPartial)
	}
	return sb.String()
}

// AblateRepairResult quantifies the Sec. 4.2 repair machinery
// (spelling correction, missing-space repair, shorthand detection):
// interpretation-recovery rates on noisy questions with repair on and
// off, across noise levels.
type AblateRepairResult struct {
	Rows []AblateRepairRow
}

// AblateRepairRow is one noise level's recovery rates.
type AblateRepairRow struct {
	NoiseRate            float64
	WithRepair, NoRepair float64
	Questions            int
}

// AblateRepair generates cars questions at increasing noise rates and
// measures how often each tagger variant recovers the generated
// ground-truth interpretation.
func (e *Env) AblateRepair() (*AblateRepairResult, error) {
	sch := e.Schemas["cars"]
	tbl, _ := e.DB.TableForDomain("cars")
	withRepair := trie.NewTagger(sch)
	noRepair := trie.NewTagger(sch)
	noRepair.NoRepair = true

	res := &AblateRepairResult{}
	for _, rate := range []float64{0, 0.25, 0.5, 1} {
		opts := questions.CleanOptions()
		opts.MinConds, opts.MaxConds = 2, 3
		opts.MisspellRate = rate
		opts.SpaceDropRate = rate / 2
		opts.ShorthandRate = rate / 2
		gen := questions.NewGenerator(tbl, e.Seed+1010+int64(rate*100))
		qs := gen.Generate(200, opts)
		row := AblateRepairRow{NoiseRate: rate, Questions: len(qs)}
		okWith, okWithout := 0, 0
		for _, q := range qs {
			truth := &boolean.Interpretation{Groups: q.TruthGroups(), Superlative: q.Superlative}
			if boolean.InterpretationsAgree(boolean.Interpret(sch, withRepair.Tag(q.Text)), truth) {
				okWith++
			}
			if boolean.InterpretationsAgree(boolean.Interpret(sch, noRepair.Tag(q.Text)), truth) {
				okWithout++
			}
		}
		row.WithRepair = float64(okWith) / float64(len(qs))
		row.NoRepair = float64(okWithout) / float64(len(qs))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the repair ablation.
func (r *AblateRepairResult) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — Sec. 4.2 repair machinery (interpretation recovery, cars)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  noise %.2f: with repair %5.1f%%   without %5.1f%%   (%d questions)\n",
			row.NoiseRate, 100*row.WithRepair, 100*row.NoRepair, row.Questions)
	}
	return sb.String()
}

// AblateCutoffResult sweeps the answer cutoff around the paper's 30.
type AblateCutoffResult struct {
	Rows []AblateCutoffRow
}

// AblateCutoffRow is one cutoff's aggregate recall of ground truth.
type AblateCutoffRow struct {
	Cutoff    int
	AvgRecall float64
}

// AblateCutoff measures ground-truth recall of the full (exact +
// partial) answer list at cutoffs 10/20/30/50, justifying the
// survey-driven choice of 30 (Sec. 5.1 Q3: ideal ≈ 26).
func (e *Env) AblateCutoff() (*AblateCutoffResult, error) {
	res := &AblateCutoffResult{}
	for _, cutoff := range []int{10, 20, 30, 50} {
		sys, err := core.New(core.Config{
			DB: e.DB, TI: e.TI, WS: e.WS, MaxAnswers: cutoff,
		})
		if err != nil {
			return nil, err
		}
		var recalls []float64
		tbl, _ := e.DB.TableForDomain("cars")
		for _, q := range e.Tests["cars"] {
			r, err := sys.AskInDomain("cars", q.Text)
			if err != nil {
				return nil, err
			}
			truth := truthAnswers(tbl, q.TruthGroups(), q.Superlative, e)
			if len(truth) == 0 {
				continue
			}
			got := map[int]bool{}
			for _, a := range r.Answers {
				got[int(a.ID)] = true
			}
			hit := 0
			for _, id := range truth {
				if got[int(id)] {
					hit++
				}
			}
			recalls = append(recalls, float64(hit)/float64(len(truth)))
		}
		res.Rows = append(res.Rows, AblateCutoffRow{
			Cutoff:    cutoff,
			AvgRecall: metrics.Mean(recalls),
		})
	}
	return res, nil
}

// String renders the cutoff sweep.
func (r *AblateCutoffResult) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — answer cutoff (cars): ground-truth recall of exact+partial answers\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  cutoff %2d: recall %.3f\n", row.Cutoff, row.AvgRecall)
	}
	return sb.String()
}
