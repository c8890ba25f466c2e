package core

import (
	"sort"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/boolean"
	"repro/internal/qlog"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sqldb"
	"repro/internal/wsmatrix"
)

// testSystemDepth builds a System over the standard test substrates
// with an explicit relaxation depth.
func testSystemDepth(t *testing.T, depth int) *System {
	t.Helper()
	db, err := adsgen.PopulateAll(42, 400)
	if err != nil {
		t.Fatal(err)
	}
	ti := map[string]*qlog.TIMatrix{}
	var schemas []*schema.Schema
	for _, d := range schema.DomainNames {
		s := schema.ByName(d)
		schemas = append(schemas, s)
		sim := qlog.NewSimulator(s, 42)
		ti[d] = qlog.BuildTIMatrix(sim.Simulate(d, 300))
	}
	ws := wsmatrix.BuildForDomains(schemas, 25, 42)
	sys, err := New(Config{DB: db, TI: ti, WS: ws, RelaxationDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// referenceRelaxedCandidates is a verbatim copy of the pre-incremental
// implementation — one compiled-and-executed SELECT per drop set — and
// serves as the behavioral specification the posting-list path must
// reproduce bit-for-bit.
func referenceRelaxedCandidates(s *System, tbl *sqldb.Table, in *boolean.Interpretation, seen map[sqldb.RowID]bool) []sqldb.RowID {
	var out []sqldb.RowID
	emit := func(ids []sqldb.RowID) {
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	for gi := range in.Groups {
		g := &in.Groups[gi]
		n := len(g.Conds)
		if n < 2 {
			continue
		}
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
			ids, err := sql.Exec(s.db, sel)
			if err != nil {
				continue
			}
			emit(ids)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// referencePartialAnswers is the pre-top-K selection: score every
// candidate, fully sort (score desc, id asc), truncate to want.
func referencePartialAnswers(s *System, tbl *sqldb.Table, in *boolean.Interpretation, exact []sqldb.RowID, want int) []Answer {
	if want <= 0 {
		return nil
	}
	sim := s.sims[tbl.Schema().Domain]
	conds := in.AllConditions()
	if len(conds) == 0 {
		return nil
	}
	seen := make(map[sqldb.RowID]bool, len(exact))
	for _, id := range exact {
		seen[id] = true
	}
	candidates := referenceRelaxedCandidates(s, tbl, in, seen)
	if len(conds) == 1 {
		candidates = nil
		for _, id := range tbl.AllRowIDs() {
			if !seen[id] {
				candidates = append(candidates, id)
			}
		}
	}
	type scored struct {
		id      sqldb.RowID
		score   float64
		dropped int
	}
	scoredCands := make([]scored, 0, len(candidates))
	for _, id := range candidates {
		sc, dropped := sim.BestRankSimOverGroups(tbl, id, in.Groups)
		scoredCands = append(scoredCands, scored{id: id, score: sc, dropped: dropped})
	}
	sort.SliceStable(scoredCands, func(i, j int) bool {
		if scoredCands[i].score != scoredCands[j].score {
			return scoredCands[i].score > scoredCands[j].score
		}
		return scoredCands[i].id < scoredCands[j].id
	})
	if len(scoredCands) > want {
		scoredCands = scoredCands[:want]
	}
	out := make([]Answer, 0, len(scoredCands))
	for _, sc := range scoredCands {
		a := Answer{
			ID:          sc.id,
			Record:      tbl.Row(sc.id),
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

// equivInterpretations builds the interpretation shapes the relaxation
// engine must handle: multi-condition conjunctions (2–4 conditions),
// OR-groups, negation, BETWEEN, and the single-condition fallback.
func equivInterpretations() []*boolean.Interpretation {
	mk := func(values ...string) boolean.Condition {
		attrs := map[string]struct {
			attr string
			typ  schema.AttrType
		}{
			"honda": {"make", schema.TypeI}, "toyota": {"make", schema.TypeI},
			"accord": {"model", schema.TypeI}, "camry": {"model", schema.TypeI},
			"blue": {"color", schema.TypeII}, "red": {"color", schema.TypeII},
			"automatic": {"transmission", schema.TypeII},
		}
		a := attrs[values[0]]
		return boolean.Condition{Attr: a.attr, Type: a.typ, Values: values}
	}
	priceLt := func(x float64) boolean.Condition {
		return boolean.Condition{Attr: "price", Type: schema.TypeIII, Op: boolean.OpLt, X: x}
	}
	return []*boolean.Interpretation{
		// Two conditions, one group.
		{Groups: []boolean.Group{{Conds: []boolean.Condition{mk("honda"), mk("blue")}}}},
		// The Table 2 running example: four conditions.
		{Groups: []boolean.Group{{Conds: []boolean.Condition{
			mk("honda"), mk("accord"), mk("blue"), priceLt(15000),
		}}}},
		// Three conditions with a negation and a BETWEEN.
		{Groups: []boolean.Group{{Conds: []boolean.Condition{
			{Attr: "make", Type: schema.TypeI, Negated: true, Values: []string{"toyota"}},
			mk("red"),
			{Attr: "price", Type: schema.TypeIII, Op: boolean.OpBetween, X: 5000, Y: 20000},
		}}}},
		// OR-groups of different sizes (Rule 2 output shape).
		{Groups: []boolean.Group{
			{Conds: []boolean.Condition{mk("honda"), mk("accord"), priceLt(12000)}},
			{Conds: []boolean.Condition{mk("toyota"), mk("camry")}},
		}},
		// OR-group with a single-condition group alongside a pair (the
		// singleton group contributes no relaxations).
		{Groups: []boolean.Group{
			{Conds: []boolean.Condition{mk("blue")}},
			{Conds: []boolean.Condition{mk("honda"), mk("automatic")}},
		}},
		// Multi-valued categorical condition (ORed values inside one
		// condition, Rule 2a).
		{Groups: []boolean.Group{{Conds: []boolean.Condition{
			{Attr: "color", Type: schema.TypeII, Values: []string{"red", "blue"}},
			mk("honda"),
			priceLt(18000),
		}}}},
		// Single condition: the whole-table similarity fallback.
		{Groups: []boolean.Group{{Conds: []boolean.Condition{mk("blue")}}}},
	}
}

// TestRelaxedCandidatesEquivalence asserts the incremental
// posting-list sweep returns exactly the candidate IDs of the
// per-query reference, at depths 1 and 2.
func TestRelaxedCandidatesEquivalence(t *testing.T) {
	for _, depth := range []int{1, 2} {
		sys := testSystemDepth(t, depth)
		tbl, _ := sys.db.TableForDomain("cars")
		for qi, in := range equivInterpretations() {
			sel := BuildSelect(tbl.Schema(), in, 0)
			exact, err := sql.Exec(sys.db, sel)
			if err != nil {
				t.Fatalf("depth %d case %d: exact query: %v", depth, qi, err)
			}
			seenNew := make(map[sqldb.RowID]bool, len(exact))
			seenRef := make(map[sqldb.RowID]bool, len(exact))
			for _, id := range exact {
				seenNew[id] = true
				seenRef[id] = true
			}
			got := sys.relaxedCandidates(tbl, in, seenNew)
			want := referenceRelaxedCandidates(sys, tbl, in, seenRef)
			if len(got) != len(want) {
				t.Fatalf("depth %d case %d (%s): %d candidates, reference has %d",
					depth, qi, in, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("depth %d case %d (%s): candidate %d = %d, reference %d",
						depth, qi, in, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPartialAnswersEquivalence asserts the top-K selection returns
// answers identical — IDs, scores, dropped conditions, similarity
// labels, and order — to fully sorting the candidate pool, at depths
// 1 and 2 and across answer budgets that under- and over-run the pool.
func TestPartialAnswersEquivalence(t *testing.T) {
	for _, depth := range []int{1, 2} {
		sys := testSystemDepth(t, depth)
		tbl, _ := sys.db.TableForDomain("cars")
		for qi, in := range equivInterpretations() {
			sel := BuildSelect(tbl.Schema(), in, 0)
			exact, err := sql.Exec(sys.db, sel)
			if err != nil {
				t.Fatalf("depth %d case %d: exact query: %v", depth, qi, err)
			}
			for _, want := range []int{1, 5, 30, 10000} {
				var got []Answer
				tbl.View(func(v sqldb.View) { got = partials(sys, v, in, exact, want, part{}) })
				ref := referencePartialAnswers(sys, tbl, in, exact, want)
				if len(got) != len(ref) {
					t.Fatalf("depth %d case %d want %d: %d answers, reference has %d",
						depth, qi, want, len(got), len(ref))
				}
				for i := range got {
					g, r := got[i], ref[i]
					if g.ID != r.ID || g.RankSim != r.RankSim ||
						g.DroppedCond != r.DroppedCond || g.SimilarityUsed != r.SimilarityUsed {
						t.Fatalf("depth %d case %d want %d: answer %d = {id %d sim %v drop %d %q}, reference {id %d sim %v drop %d %q}",
							depth, qi, want, i,
							g.ID, g.RankSim, g.DroppedCond, g.SimilarityUsed,
							r.ID, r.RankSim, r.DroppedCond, r.SimilarityUsed)
					}
				}
			}
		}
	}
}
