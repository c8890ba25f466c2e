package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/rank"
	"repro/internal/schema"
)

// Fig6Row is one approach's query processing time over the questions:
// the mean, as Figure 6 plots it, and the median, which one stalled
// question cannot move.
type Fig6Row struct {
	Ranker  string
	Average time.Duration
	Median  time.Duration
}

// Fig6Result reproduces Figure 6: average query processing time of
// CQAds and the four comparison approaches over the test questions.
// CQAds runs its full pipeline (exact retrieval first, then partial
// matching when needed); the comparison rankers, which have no
// exact/partial split, score and sort the whole table per question,
// as their original designs do.
type Fig6Result struct {
	Rows      []Fig6Row
	Questions int
}

// Fig6Latency runs the timing experiment. maxPerDomain bounds the
// questions per domain (0 = all) so benchmarks can subsample.
func (e *Env) Fig6Latency(maxPerDomain int) (*Fig6Result, error) {
	times := map[string][]time.Duration{}
	count := 0
	for _, d := range schema.DomainNames {
		tbl, _ := e.DB.TableForDomain(d)
		rankers := e.rankersFor(d, tbl)
		all := tbl.AllRowIDs()
		qs := e.Tests[d]
		if maxPerDomain > 0 && len(qs) > maxPerDomain {
			qs = qs[:maxPerDomain]
		}
		for _, q := range qs {
			count++
			// CQAds: full pipeline, timed inside AskInDomain.
			res, err := e.System.AskInDomain(d, q.Text)
			if err != nil {
				return nil, err
			}
			times["CQAds"] = append(times["CQAds"], res.Elapsed)

			// Comparison approaches: interpret once (untimed, shared),
			// then score + sort the table (timed).
			query := &rank.Query{Text: q.Text, Conds: q.Conds}
			for _, r := range rankers {
				if r.Name() == "CQAds" {
					continue
				}
				start := time.Now()
				top := r.Rank(query, tbl, all)
				if len(top) > 30 {
					_ = top[:30]
				}
				times[r.Name()] = append(times[r.Name()], time.Since(start))
			}
		}
	}
	res := &Fig6Result{Questions: count}
	for name, ts := range times {
		var total time.Duration
		for _, d := range ts {
			total += d
		}
		slices.Sort(ts)
		res.Rows = append(res.Rows, Fig6Row{
			Ranker:  name,
			Average: total / time.Duration(count),
			Median:  ts[len(ts)/2],
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Average < res.Rows[j].Average })
	return res, nil
}

// String renders Figure 6.
func (r *Fig6Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6 — average query processing time (%d questions)\n", r.Questions)
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-10s %12s  (median %s)\n", row.Ranker, row.Average, row.Median)
	}
	return sb.String()
}

// fig6TierRatio is how much slower than the previous approach (by
// median) an approach must be to start a new tier. On 300 ads per
// domain the tiers are 6× and 3× apart and the approaches inside a
// tier within 1.5× of each other, with or without the race detector.
const fig6TierRatio = 2

// Untimed renders Figure 6 as the ordering of the approaches only:
// tiers fastest first, an approach joining the previous tier when its
// median time is within fig6TierRatio of the one before it, names
// sorted inside a tier. That is what the figure claims (the
// comparison rankers that score the whole table are slower than
// CQAds), without the timings that differ from machine to machine.
func (r *Fig6Result) Untimed() string {
	rows := slices.Clone(r.Rows)
	slices.SortFunc(rows, func(a, b Fig6Row) int { return cmp.Compare(a.Median, b.Median) })
	var tiers [][]string
	for i, row := range rows {
		if i == 0 || row.Median > fig6TierRatio*rows[i-1].Median {
			tiers = append(tiers, nil)
		}
		tiers[len(tiers)-1] = append(tiers[len(tiers)-1], row.Ranker)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6 — query processing time, fastest first (%d questions; an approach within %d× of the\n", r.Questions, fig6TierRatio)
	sb.WriteString("  previous one's median time shares its tier)\n")
	for i, tier := range tiers {
		slices.Sort(tier)
		fmt.Fprintf(&sb, "  %d. %s\n", i+1, strings.Join(tier, ", "))
	}
	return sb.String()
}
