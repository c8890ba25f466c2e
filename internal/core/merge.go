package core

import (
	"fmt"
	"sort"

	"repro/internal/topk"
)

// MergeScatter folds the per-partition parts of one scattered question
// into the answer a monolith hosting every row would have produced —
// same answers, same order, same ranking metadata. The partitions hold
// disjoint row sets of one domain and share the schema-derived
// interpretation, so the merge is pure bookkeeping:
//
//   - Exact answers are disjoint across parts; merged ascending by ad
//     key (the monolith's execution order) and capped at MaxAnswers.
//   - For superlative questions the global extreme is the best local
//     extreme (min ascending, max descending); only parts AT that
//     extreme contribute exact answers, and every exact answer of a
//     part that lost the extreme race is demoted into the partial pool
//     with its precomputed demotion ranking when the relaxation admits
//     it (DemoteDropped ≥ 0) — the monolith would have ranked those
//     very rows as partial matches, and no others.
//   - Partial answers re-rank through the same bounded top-K selector
//     the partitions used, under the same total order (Rank_Sim
//     descending, ad key ascending), so ties break identically.
//
// The merge is deterministic in the multiset of parts: any arrival
// order yields the same output.
func MergeScatter[P any](parts []*ScatterPart[P]) (*ScatterPart[P], error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: MergeScatter needs at least one part")
	}
	first := parts[0]
	for _, p := range parts[1:] {
		if p.Domain != first.Domain || p.Interpretation != first.Interpretation ||
			p.SQL != first.SQL || p.MaxAnswers != first.MaxAnswers ||
			p.Superlative != first.Superlative {
			return nil, fmt.Errorf("core: scatter parts disagree on the question (domain %q vs %q): partitions are running divergent schemas or versions",
				first.Domain, p.Domain)
		}
	}
	out := &ScatterPart[P]{
		Domain:           first.Domain,
		Interpretation:   first.Interpretation,
		SQL:              first.SQL,
		MaxAnswers:       first.MaxAnswers,
		PartialsEligible: first.PartialsEligible,
		Superlative:      first.Superlative,
		Desc:             first.Desc,
		Answers:          []ScatterAnswer[P]{},
	}

	var exacts []ScatterAnswer[P]
	var pool []ScatterAnswer[P]
	if first.Superlative {
		// Global extreme: the ORDER BY is ascending for "cheapest"
		// (smallest wins) and descending for "most expensive" (largest
		// wins), so the best local extreme is the min or max
		// respectively. Extremes are exact row values, so float equality
		// across parts is sound.
		for _, p := range parts {
			if !p.HasExtreme {
				continue
			}
			if !out.HasExtreme || (out.Desc && p.Extreme > out.Extreme) || (!out.Desc && p.Extreme < out.Extreme) {
				out.HasExtreme = true
				out.Extreme = p.Extreme
			}
		}
		for _, p := range parts {
			atExtreme := p.HasExtreme && p.Extreme == out.Extreme
			for _, a := range p.Answers {
				switch {
				case !a.Exact:
					pool = append(pool, a)
				case atExtreme:
					exacts = append(exacts, a)
				case out.PartialsEligible && a.DemoteDropped >= 0:
					// Demotion: this row matched every condition of a
					// group but its partition lost the extreme race. The
					// relaxation admits it, so the monolith would have
					// ranked it as a partial match; the partition
					// precomputed that ranking.
					d := a
					d.Exact = false
					d.RankSim = a.DemoteRankSim
					d.DroppedCond = a.DemoteDropped
					d.SimilarityUsed = a.DemoteSimilarityUsed
					d.DemoteRankSim, d.DemoteDropped, d.DemoteSimilarityUsed = 0, 0, ""
					pool = append(pool, d)
				}
			}
		}
	} else {
		for _, p := range parts {
			for _, a := range p.Answers {
				if a.Exact {
					exacts = append(exacts, a)
				} else {
					pool = append(pool, a)
				}
			}
		}
	}

	sort.Slice(exacts, func(i, j int) bool { return exacts[i].ID < exacts[j].ID })
	if len(exacts) > out.MaxAnswers {
		exacts = exacts[:out.MaxAnswers]
	}
	for i := range exacts {
		exacts[i].DemoteRankSim, exacts[i].DemoteDropped, exacts[i].DemoteSimilarityUsed = 0, 0, ""
	}
	out.Answers = append(out.Answers, exacts...)
	out.ExactCount = len(exacts)

	if want := out.MaxAnswers - out.ExactCount; out.PartialsEligible && want > 0 {
		sel := topk.New(want, func(a, b ScatterAnswer[P]) bool {
			if a.RankSim != b.RankSim {
				return a.RankSim > b.RankSim
			}
			return a.ID < b.ID
		})
		for _, a := range pool {
			sel.Push(a)
		}
		out.Answers = append(out.Answers, sel.Sorted()...)
	}
	return out, nil
}
