package experiments

import (
	"fmt"
	"strings"

	"repro/internal/boolean"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/questions"
	"repro/internal/rank"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

// ExactResult is the Sec. 5.3 experiment: averaged precision, recall
// and F-measure of exact-match retrieval over the 650 questions, plus
// the bimodality statistic the paper remarks on ("most of the test
// questions yield 100% ... a few yield 0%").
type ExactResult struct {
	Precision, Recall, F1 float64
	// PerfectFraction is the share of questions with P=R=1;
	// ZeroFraction the share with F=0.
	PerfectFraction, ZeroFraction float64
	Total                         int
}

// ExactMatch runs the Sec. 5.3 experiment. For each question the
// ground-truth answer set is every record satisfying the intended
// conditions (capped at the 30-answer cutoff, which also caps
// retrieval); the retrieved set is CQAds's exact answers.
func (e *Env) ExactMatch() (*ExactResult, error) {
	type outcome struct {
		res *core.Result
		err error
	}
	var ps, rs, fs []float64
	perfect, zero, total := 0, 0, 0
	for _, d := range schema.DomainNames {
		tbl, _ := e.DB.TableForDomain(d)
		qs := e.Tests[d]
		// Answers are computed on a worker pool and aggregated in
		// question order, keeping the averaged metrics bit-identical to
		// a sequential run.
		outcomes := pool.Map(qs, 0, func(_ int, q questions.Question) outcome {
			res, err := e.System.AskInDomain(d, q.Text)
			return outcome{res: res, err: err}
		})
		for i, o := range outcomes {
			q := qs[i]
			if o.err != nil {
				return nil, fmt.Errorf("experiments: %q: %w", q.Text, o.err)
			}
			res := o.res
			retrieved := make([]sqldb.RowID, 0, res.ExactCount)
			for _, a := range res.Answers[:res.ExactCount] {
				retrieved = append(retrieved, a.ID)
			}
			relevant := truthAnswers(tbl, q.TruthGroups(), q.Superlative, e)
			prf := metrics.PrecisionRecallF(retrieved, relevant)
			ps = append(ps, prf.Precision)
			rs = append(rs, prf.Recall)
			fs = append(fs, prf.F1)
			if prf.Precision == 1 && prf.Recall == 1 {
				perfect++
			}
			if prf.F1 == 0 {
				zero++
			}
			total++
		}
	}
	return &ExactResult{
		Precision:       metrics.Mean(ps),
		Recall:          metrics.Mean(rs),
		F1:              metrics.Mean(fs),
		PerfectFraction: metrics.Accuracy(perfect, total),
		ZeroFraction:    metrics.Accuracy(zero, total),
		Total:           total,
	}, nil
}

// truthAnswers computes the ground-truth answer set of a question:
// records satisfying any intended group (and the superlative extreme
// within them), capped at the 30-answer cutoff.
func truthAnswers(tbl *sqldb.Table, groups []boolean.Group, sup *boolean.SuperlativeSpec, e *Env) []sqldb.RowID {
	var out []sqldb.RowID
	for _, id := range tbl.AllRowIDs() {
		for gi := range groups {
			if rank.SatisfiesAll(tbl, id, groups[gi].Conds) {
				out = append(out, id)
				break
			}
		}
	}
	if sup != nil && len(out) > 0 {
		out = tbl.SortByColumn(out, sup.Attr, sup.Descending)
		extreme := tbl.Value(out[0], sup.Attr).Num()
		var kept []sqldb.RowID
		for _, id := range out {
			if tbl.Value(id, sup.Attr).Num() != extreme {
				break
			}
			kept = append(kept, id)
		}
		out = kept
	}
	if len(out) > 30 {
		out = out[:30]
	}
	return out
}

// String renders the Sec. 5.3 summary line.
func (r *ExactResult) String() string {
	var sb strings.Builder
	sb.WriteString("Sec. 5.3 — exact-match retrieval over the test questions\n")
	fmt.Fprintf(&sb, "  precision %5.1f%%   recall %5.1f%%   F-measure %5.1f%%\n",
		100*r.Precision, 100*r.Recall, 100*r.F1)
	fmt.Fprintf(&sb, "  all-or-nothing: %4.1f%% perfect, %4.1f%% zero (of %d questions)\n",
		100*r.PerfectFraction, 100*r.ZeroFraction, r.Total)
	return sb.String()
}
