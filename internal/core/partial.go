package core

import (
	"math"
	"slices"
	"sync"

	"repro/internal/boolean"
	"repro/internal/dedup"
	"repro/internal/rank"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sqldb"
	"repro/internal/text"
	"repro/internal/topk"
)

// partialAnswers implements the N−1 strategy of Sec. 4.3.1: each
// condition is dropped in turn, the relaxed queries are evaluated, and
// the union of their results (minus exact answers) is ranked by
// Rank_Sim (Eq. 5). Questions with a single condition fall back to
// similarity matching over the whole table. RelaxationDepth > 1
// additionally drops pairs (the N−2 sweep the paper discusses). A
// non-nil keep restricts the candidate pool to rows it accepts — the
// scatter path's hash-slice filter; the monolith path passes nil.
func (s *System) partialAnswers(tbl *sqldb.Table, in *boolean.Interpretation, exact []sqldb.RowID, want int, dd *dedup.Result, keep func(sqldb.RowID) bool) []Answer {
	if want <= 0 {
		return nil
	}
	sim := s.sims[tbl.Schema().Domain]
	conds := in.AllConditions()
	if len(conds) == 0 {
		return nil
	}
	rs := relaxPool.Get().(*relaxScratch)
	defer relaxPool.Put(rs)
	candidates := s.candidatePool(tbl, in, exact, rs)
	if keep != nil {
		kept := candidates[:0]
		for _, id := range candidates {
			if keep(id) {
				kept = append(kept, id)
			}
		}
		candidates = kept
	}
	if dd != nil {
		candidates = dd.FilterAnswersExcluding(candidates, exact)
	}

	type scored struct {
		id      sqldb.RowID
		score   float64
		dropped int
	}
	// Bounded top-K selection: (score desc, id asc) is a total order,
	// so the K retained answers are identical — IDs, scores and order —
	// to fully sorting the pool and truncating, without the O(C log C)
	// sort over a pool that for single-condition questions is the
	// whole table.
	sel := topk.New(want, func(a, b scored) bool {
		if a.score != b.score {
			return a.score > b.score
		}
		return a.id < b.id
	})
	// Every Eq. 5 term is at most 1 (TI_Sim, Feat_Sim and Num_Sim are
	// clamped to [0,1]), so no candidate scores above the largest
	// group's N. Candidates arrive in ascending RowID and ties break on
	// RowID, so once the selector is full and its worst answer already
	// scores N, no later candidate can enter: scoring stops there. For
	// a superlative the non-extreme full matches reach N early.
	ceiling := float64(maxGroupLen(in))
	for _, id := range candidates {
		sc, dropped := sim.BestRankSimOverGroups(tbl, id, in.Groups)
		sel.Push(scored{id: id, score: sc, dropped: dropped})
		if sel.Len() == want {
			if w, _ := sel.Worst(); w.score == ceiling {
				break
			}
		}
	}
	top := sel.Sorted()
	out := make([]Answer, 0, len(top))
	for _, sc := range top {
		a := Answer{
			ID:          sc.id,
			Record:      tbl.RecordView(sc.id),
			RankSim:     sc.score,
			DroppedCond: sc.dropped,
		}
		if sc.dropped >= 0 && sc.dropped < len(conds) {
			a.SimilarityUsed = similarityName(&conds[sc.dropped])
		}
		out = append(out, a)
	}
	return out
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
// one length, at least the universe of the ask in progress.
type relaxScratch struct {
	cnt     []uint8
	mark    []uint32
	stamp   []uint32
	touched []sqldb.RowID
	cands   []sqldb.RowID
	condSeq uint32
	epoch   uint32
	// slots is the universe of the ask in progress: tbl.Slots() when
	// it began. Rows inserted later have ids ≥ slots and are ignored.
	slots int
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
	sc.slots = slots
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.stamp)
		sc.epoch = 1
	}
	sc.cands = sc.cands[:0]
}

// see adds id to the seen set and reports whether it was new. Ids
// outside the ask's universe are never added.
func (sc *relaxScratch) see(id sqldb.RowID) bool {
	if id < 0 || int(id) >= sc.slots || sc.stamp[id] == sc.epoch {
		return false
	}
	sc.stamp[id] = sc.epoch
	return true
}

// candidatePool fills sc with the N−1 candidate pool of in — every row
// the relaxation admits, minus exact — and returns it in ascending id
// order. The slice is sc's; it is valid until sc's next ask.
func (s *System) candidatePool(tbl *sqldb.Table, in *boolean.Interpretation, exact []sqldb.RowID, sc *relaxScratch) []sqldb.RowID {
	sc.begin(tbl.Slots())
	for _, id := range exact {
		sc.see(id)
	}
	if in.ConditionCount() != 1 {
		return s.relaxedCandidatesInto(tbl, in, sc)
	}
	// Single condition: similarity matching over the table (Sec. 4.3.1
	// "For questions with one condition C, CQAds applies the
	// similarity-matching strategy"). Ids ≥ slots were inserted after
	// the exact answers were computed, so they are kept.
	all := tbl.AppendLiveIDs(sc.cands)
	cands := all[:0]
	for _, id := range all {
		if int(id) >= sc.slots || sc.stamp[id] != sc.epoch {
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
// seen set are skipped; the result is sorted ascending.
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
func (s *System) relaxedCandidatesInto(tbl *sqldb.Table, in *boolean.Interpretation, sc *relaxScratch) []sqldb.RowID {
	emit := func(ids []sqldb.RowID) {
		for _, id := range ids {
			if sc.see(id) {
				sc.cands = append(sc.cands, id)
			}
		}
	}
	for gi := range in.Groups {
		g := &in.Groups[gi]
		n := len(g.Conds)
		if n < 2 {
			continue
		}
		if n > 200 || !condsStreamable(tbl, g.Conds) {
			// A condition that cannot stream (unknown column — cannot
			// happen for schema-derived interpretations) falls back to
			// the per-drop-set reference path, which skips exactly the
			// drop sets whose kept conjunction fails.
			s.relaxGroupByQueries(tbl, g, emit)
			continue
		}
		if sc.condSeq > math.MaxUint32-uint32(n) {
			clear(sc.cnt)
			clear(sc.mark)
			sc.condSeq = 0
		}
		base := sc.condSeq
		cnt, mark, slots := sc.cnt, sc.mark, sc.slots
		touched := sc.touched[:0]
		for ci := range g.Conds {
			sc.condSeq++
			seq := sc.condSeq
			_ = sql.ForEachMatch(tbl, condExpr(&g.Conds[ci]), func(id sqldb.RowID) {
				if int(id) >= slots || mark[id] == seq {
					// Row inserted after the ask began (not part of
					// this pass's universe), or already counted for
					// this condition by another OR branch.
					return
				}
				if mark[id] > base {
					cnt[id]++
				} else {
					cnt[id] = 1
					touched = append(touched, id)
				}
				mark[id] = seq
			})
		}
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
func condsStreamable(tbl *sqldb.Table, conds []boolean.Condition) bool {
	for i := range conds {
		if tbl.ColumnIndex(conds[i].Attr) < 0 {
			return false
		}
	}
	return true
}

// relaxGroupByQueries is the reference relaxation path: one compiled
// query per drop set. It survives as the fallback for groups whose
// conditions cannot be evaluated standalone and as the behavioral
// specification the incremental path is tested against.
func (s *System) relaxGroupByQueries(tbl *sqldb.Table, g *boolean.Group, emit func([]sqldb.RowID)) {
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
		sel := BuildSelect(tbl.Schema(), relaxed, 0)
		ids, err := s.execSelect(tbl, sel)
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
// interpretation in one domain, excluding the exact matches. The
// ranking-comparison experiments (Fig. 5) hand this same pool to every
// ranker so approaches differ only in ordering. The returned slice is
// the caller's.
func (s *System) PartialCandidates(domain string, in *boolean.Interpretation) ([]sqldb.RowID, error) {
	tbl, err := s.hostedTable(domain)
	if err != nil {
		return nil, err
	}
	sel := BuildSelect(tbl.Schema(), in, 0)
	exact, err := s.execSelect(tbl, sel)
	if err != nil {
		return nil, err
	}
	rs := relaxPool.Get().(*relaxScratch)
	defer relaxPool.Put(rs)
	return append([]sqldb.RowID(nil), s.candidatePool(tbl, in, exact, rs)...), nil
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
