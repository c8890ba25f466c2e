package core

import (
	"math"
	"slices"
	"sync"

	"repro/internal/boolean"
	"repro/internal/rank"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sqldb"
	"repro/internal/text"
	"repro/internal/topk"
	"repro/internal/work"
)

// partialAnswers implements the N−1 strategy of Sec. 4.3.1 for
// answerIn: each condition is dropped in turn, the relaxed queries are
// evaluated, and the union of their results (minus exact answers) is
// ranked by Rank_Sim (Eq. 5). candidates is that union, ascending, as
// candidatePool returns it: questions with a single condition fall
// back to similarity matching over the whole table, and
// RelaxationDepth > 1 additionally drops pairs (the N−2 sweep the paper
// discusses). p's keep restricts the candidates to a scatter leg's hash
// slice. Every row is read through v, the ask's one view.
// names labels in's conditions (similarityNames). The want best
// answers, built by mk, are appended to dst, grown at most once.
func partialAnswers[A any](s *System, dst []A, v sqldb.View, in *boolean.Interpretation, candidates []sqldb.RowID, want int, p part, names []string, mk func(Answer, demotion) A) []A {
	if want <= 0 {
		return dst
	}
	sim := s.sims[v.Schema().Domain]
	if p.keep != nil {
		kept := candidates[:0]
		for _, id := range candidates {
			if p.keep(id) {
				kept = append(kept, id)
			}
		}
		candidates = kept
	}

	// Bounded top-K selection: (score desc, id asc) is a total order,
	// so the K retained answers are identical — IDs, scores and order —
	// to fully sorting the pool and truncating, without the O(C log C)
	// sort over a pool that for single-condition questions is the
	// whole table.
	sel := topk.New(want, rankedBefore)
	// Every Eq. 5 term is at most 1 (TI_Sim, Feat_Sim and Num_Sim are
	// clamped to [0,1]), so no candidate scores above the largest
	// group's N. Candidates arrive in ascending RowID and ties break on
	// RowID, so once the selector is full and its worst answer already
	// scores N, no later candidate can enter: scoring stops there. For
	// a superlative the non-extreme full matches reach N early.
	ceiling := float64(maxGroupLen(in))
	n := 0
	for _, id := range candidates {
		n++
		sc, dropped := sim.RowRankSim(v.Row(id), in.Groups)
		sel.Push(scored{id: id, score: sc, dropped: dropped})
		if sel.Len() == want {
			if w, _ := sel.Worst(); w.score == ceiling {
				break
			}
		}
	}
	v.Work().AddScored(n, in.ConditionCount())
	top := sel.Sorted()
	dst = slices.Grow(dst, len(top))
	for _, sc := range top {
		a := Answer{
			ID:          sc.id,
			Record:      v.Row(sc.id),
			RankSim:     sc.score,
			DroppedCond: sc.dropped,
		}
		if sc.dropped >= 0 && sc.dropped < len(names) {
			a.SimilarityUsed = names[sc.dropped]
		}
		dst = append(dst, mk(a, demotion{}))
	}
	return dst
}

// scored is one candidate's Rank_Sim ranking.
type scored struct {
	id      sqldb.RowID
	score   float64
	dropped int
}

// rankedBefore orders ranked candidates by score descending, then id
// ascending. It is a package-level function, not a literal inside the
// generic partialAnswers, where a literal would capture the
// instantiation's dictionary and allocate on every ask.
func rankedBefore(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// relaxScratch is the tally and dedup state of one relaxation sweep,
// pooled so an ask allocates nothing that scales with the table:
//
//   - cnt[id] is the number of the current group's conditions row id
//     satisfies, valid only when mark[id] > the group's base sequence;
//     mark[id] is the condSeq of the last condition that counted id
//     (which also deduplicates rows a multi-valued OR condition yields
//     more than once);
//   - stamp is the seen set: row id is seen ⇔ stamp[id] == epoch, so
//     starting a new ask's set is one increment, not a clear;
//   - touched lists the rows the current group counted, and cands
//     collects the candidate pool.
//
// condSeq and epoch carry over from one ask to the next; the arrays
// are zeroed before either counter can wrap. All three arrays share
// one length, at least the slot count of the view the ask reads, so
// every id the view yields indexes them.
type relaxScratch struct {
	cnt     []uint8
	mark    []uint32
	stamp   []uint32
	touched []sqldb.RowID
	cands   []sqldb.RowID
	condSeq uint32
	epoch   uint32
	// work is the work counts of the ask holding the scratch.
	work work.Counts
}

var relaxPool = sync.Pool{New: func() any { return new(relaxScratch) }}

// begin starts an ask over a table with slots row slots: it grows the
// arrays if the table outgrew them, opens an empty seen set and an
// empty candidate pool.
func (sc *relaxScratch) begin(slots int) {
	if len(sc.stamp) < slots {
		// Headroom, so a table growing under live ingest does not
		// reallocate on every ask.
		n := slots + slots/8
		sc.cnt = make([]uint8, n)
		sc.mark = make([]uint32, n)
		sc.stamp = make([]uint32, n)
		sc.condSeq, sc.epoch = 0, 0
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.stamp)
		sc.epoch = 1
	}
	sc.cands = sc.cands[:0]
}

// see adds id to the seen set and reports whether it was new.
func (sc *relaxScratch) see(id sqldb.RowID) bool {
	if sc.stamp[id] == sc.epoch {
		return false
	}
	sc.stamp[id] = sc.epoch
	return true
}

// candidatePool fills sc with the N−1 candidate pool of in — every row
// the relaxation admits, minus exact — and returns it in ascending id
// order, read through v, the view exact was computed in. where is the
// WHERE BuildSelect built from in, whose condition nodes the
// relaxation evaluates. The slice is sc's; it is valid until sc's next
// ask.
func (s *System) candidatePool(v sqldb.View, in *boolean.Interpretation, where sql.Expr, exact []sqldb.RowID, sc *relaxScratch) []sqldb.RowID {
	sc.begin(v.Slots())
	for _, id := range exact {
		sc.see(id)
	}
	if in.ConditionCount() != 1 {
		return s.relaxedCandidatesInto(v, in, where, sc)
	}
	// Single condition: similarity matching over the table (Sec. 4.3.1
	// "For questions with one condition C, CQAds applies the
	// similarity-matching strategy").
	all := v.AppendLiveIDs(sc.cands)
	cands := all[:0]
	for _, id := range all {
		if sc.stamp[id] != sc.epoch {
			cands = append(cands, id)
		}
	}
	sc.cands = cands
	return cands
}

// relaxedCandidatesInto unions the results of every relaxed query into
// sc.cands: for each group, each subset of up to RelaxationDepth
// conditions is dropped and the remaining conjunction evaluated (the
// footnote-4 AND→OR replacement generalized). Records already in sc's
// seen set are skipped; the result is sorted ascending. Each condition
// is evaluated through the node BuildSelect built for it in where
// (groupConds), so the sweep builds no expression of its own.
//
// A record belongs to the union of the single-drop results exactly
// when it satisfies at least n−1 of the group's n conditions (and to
// the pair-drop union when it satisfies at least n−2), so the sweep
// never assembles per-drop-set intersections at all: each condition
// streams its matching rows once through the driving scans
// (sql.ForEachMatch — range conditions skip the RowID re-sort the
// eager posting-list path paid), a tally counts per-row satisfied
// conditions, and rows meeting the depth threshold are emitted. That
// is O(sum of posting sizes) per group regardless of depth, where the
// old prefix/suffix merge pipeline paid O(n) full-width merges for
// N−1 and one merge per pair for N−2.
func (s *System) relaxedCandidatesInto(v sqldb.View, in *boolean.Interpretation, where sql.Expr, sc *relaxScratch) []sqldb.RowID {
	emit := func(ids []sqldb.RowID) {
		for _, id := range ids {
			if sc.see(id) {
				sc.cands = append(sc.cands, id)
			}
		}
	}
	k := -1 // where's operand for group gi: groups without conditions have none
	for gi := range in.Groups {
		g := &in.Groups[gi]
		n := len(g.Conds)
		if n > 0 {
			k++
		}
		if n < 2 {
			continue
		}
		if n > 200 || !condsStreamable(v.Schema(), g.Conds) {
			// A condition that cannot stream (unknown column — cannot
			// happen for schema-derived interpretations) falls back to
			// the per-drop-set reference path, which skips exactly the
			// drop sets whose kept conjunction fails.
			s.relaxGroupByQueries(v, g, emit)
			continue
		}
		if sc.condSeq > math.MaxUint32-uint32(n) {
			clear(sc.cnt)
			clear(sc.mark)
			sc.condSeq = 0
		}
		base := sc.condSeq
		cnt, mark := sc.cnt, sc.mark
		touched := sc.touched[:0]
		incs := 0
		conds := groupConds(where, in, k)
		for ci := range g.Conds {
			sc.condSeq++
			seq := sc.condSeq
			_ = sql.ForEachMatch(v, conds[ci], func(id sqldb.RowID) {
				if mark[id] == seq {
					// Already counted for this condition by another
					// OR branch.
					return
				}
				if mark[id] > base {
					cnt[id]++
				} else {
					cnt[id] = 1
					touched = append(touched, id)
				}
				mark[id] = seq
				incs++
			})
		}
		v.Work().AddTally(incs)
		sc.touched = touched
		// Satisfying ≥ n−1 conditions ⇔ membership in some single-drop
		// result; depth ≥ 2 lowers the threshold to n−2 exactly when
		// the pair sweep runs (n > 2 — for n = 2 dropping a pair would
		// leave an empty conjunction, which the reference path skips).
		thresh := uint8(n - 1)
		if s.depth >= 2 && n > 2 {
			thresh = uint8(n - 2)
		}
		for _, id := range touched {
			if cnt[id] >= thresh && sc.see(id) {
				sc.cands = append(sc.cands, id)
			}
		}
	}
	slices.Sort(sc.cands)
	return sc.cands
}

// condsStreamable reports whether every condition of a group
// references a known column — the only way a schema-derived condition
// can fail to evaluate, and therefore the only case the relaxation
// sweep must leave to the per-drop-set fallback.
func condsStreamable(sch *schema.Schema, conds []boolean.Condition) bool {
	for i := range conds {
		if _, ok := sch.Attr(conds[i].Attr); !ok {
			return false
		}
	}
	return true
}

// relaxGroupByQueries is the reference relaxation path: one compiled
// query per drop set. It survives as the fallback for groups whose
// conditions cannot be evaluated standalone and as the behavioral
// specification the incremental path is tested against.
func (s *System) relaxGroupByQueries(v sqldb.View, g *boolean.Group, emit func([]sqldb.RowID)) {
	n := len(g.Conds)
	for _, drop := range dropSets(n, s.depth) {
		kept := make([]boolean.Condition, 0, n-len(drop))
		for i := range g.Conds {
			if !drop[i] {
				kept = append(kept, g.Conds[i])
			}
		}
		if len(kept) == 0 {
			continue
		}
		relaxed := &boolean.Interpretation{Groups: []boolean.Group{{Conds: kept}}}
		sel := BuildSelect(v.Schema(), relaxed, 0)
		ids, err := sql.RunView(v, sel)
		if err != nil {
			continue
		}
		emit(ids)
	}
}

// dropSets enumerates the index sets of size 1..depth to drop from n
// conditions, as boolean masks.
func dropSets(n, depth int) []map[int]bool {
	var out []map[int]bool
	for i := 0; i < n; i++ {
		out = append(out, map[int]bool{i: true})
	}
	if depth >= 2 && n > 2 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				out = append(out, map[int]bool{i: true, j: true})
			}
		}
	}
	return out
}

// PartialCandidates exposes the N−1 relaxation candidate pool for an
// interpretation in one domain, excluding the exact matches of its
// unlimited SELECT: the benchmark's stage trace times the relaxation
// with it. (The Fig. 5 ranking comparison takes its rankers from
// RankerForDomain.) The exact matches and the pool come from one read
// view. The returned slice is the caller's.
func (s *System) PartialCandidates(domain string, in *boolean.Interpretation) (pool []sqldb.RowID, err error) {
	tbl, err := s.hostedTable(domain)
	if err != nil {
		return nil, err
	}
	sel := BuildSelect(tbl.Schema(), in, 0)
	tbl.View(func(v sqldb.View) {
		var exact []sqldb.RowID
		if exact, err = sql.RunView(v, sel); err != nil {
			return
		}
		rs := relaxPool.Get().(*relaxScratch)
		pool = append([]sqldb.RowID(nil), s.candidatePool(v, in, sel.Where, exact, rs)...)
		relaxPool.Put(rs)
	})
	return pool, err
}

// similarityNames labels every condition once per ask, so that naming
// the measure of each ranked or demoted answer allocates nothing per
// answer.
func similarityNames(conds []boolean.Condition) []string {
	names := make([]string, len(conds))
	for i := range conds {
		names[i] = similarityName(&conds[i])
	}
	return names
}

// similarityName renders the Table 2 "Similarity Measure Used" label
// for a dropped condition.
func similarityName(c *boolean.Condition) string {
	switch c.Type {
	case schema.TypeI:
		return "TI_Sim on " + c.Attr
	case schema.TypeII:
		return "Feat_Sim on " + c.Attr
	default:
		return "Num_Sim on " + c.Attr
	}
}

// tokenizeForClassify lower-cases, tokenizes and stopword-filters a
// question for the Naive Bayes classifier.
func tokenizeForClassify(q string) []string {
	return text.RemoveStopwords(text.Words(q))
}

// RankerForDomain builds the paper's ranker over a domain's
// similarity bundle, for use by the comparison experiments.
func (s *System) RankerForDomain(domain string) rank.Ranker {
	return &rank.CQAds{Sim: s.sims[domain]}
}
