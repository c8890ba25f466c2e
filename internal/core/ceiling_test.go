package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/boolean"
	"repro/internal/partition"
	"repro/internal/qlog"
	"repro/internal/questions"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sqldb"
	"repro/internal/wsmatrix"
)

// overshootAds are ads whose Type II value makes the unclamped
// Feat_Sim of the question value exceed 1 on the seed-42 WS-matrix
// (1.0000000000000002). Inserted last, they hold the highest RowIDs,
// where the ceiling stop never looks: if Feat_Sim could pass 1 they
// would outrank every earlier candidate the stop cut off.
var overshootAds = []struct {
	domain string
	record map[string]sqldb.Value
	ask    string
}{
	{"clothing", map[string]sqldb.Value{
		"brand": sqldb.String("nike"), "item": sqldb.String("jacket"),
		"material": sqldb.String(strings.Repeat("leather ", 13)), "price": sqldb.Number(2990),
	}, "cheapest leather"},
	{"cars", map[string]sqldb.Value{
		"make": sqldb.String("honda"), "model": sqldb.String("accord"),
		"drivetrain": sqldb.String("4 wheel drive 4 wheel drive 4 wheel drive 4 wheel drive 4"),
		"price":      sqldb.Number(79000),
	}, "cheapest 4 wheel drive"},
}

// ceilingDB builds the seed-42 8×500 corpus the way a seed-42 system
// does (ads, TI-matrices, the shared WS-matrix), plus overshootAds.
func ceilingDB(t *testing.T) (*sqldb.DB, map[string]*qlog.TIMatrix, *wsmatrix.Matrix) {
	t.Helper()
	db := sqldb.NewDB()
	ti := map[string]*qlog.TIMatrix{}
	var schemas []*schema.Schema
	for ci, d := range schema.DomainNames {
		s := schema.ByName(d)
		schemas = append(schemas, s)
		if _, err := adsgen.NewGenerator(42+int64(ci)*7919).Populate(db, s, 500); err != nil {
			t.Fatal(err)
		}
		ti[d] = qlog.BuildTIMatrix(qlog.NewSimulator(s, 42+101).Simulate(d, 500))
	}
	for _, ad := range overshootAds {
		tbl, _ := db.TableForDomain(ad.domain)
		if _, err := tbl.Insert(ad.record); err != nil {
			t.Fatal(err)
		}
	}
	return db, ti, wsmatrix.BuildForDomains(schemas, 40, 42+202)
}

// rankEveryCandidate is partialAnswers without the ceiling stop: it
// scores the whole candidate pool, fully sorts it (score desc, RowID
// asc) and truncates to want. It fails the test if the pool is not
// strictly ascending or any score passes the Rank_Sim ceiling — the two
// facts the stop relies on.
func rankEveryCandidate(t *testing.T, s *System, v sqldb.View, in *boolean.Interpretation, exact []sqldb.RowID, want int, keep func(sqldb.RowID) bool) []Answer {
	t.Helper()
	sim := s.sims[v.Schema().Domain]
	conds := in.AllConditions()
	pool := slices.Clone(s.candidatePool(v, in, BuildSelect(v.Schema(), in, 0).Where, exact, new(relaxScratch)))
	if keep != nil {
		pool = slices.DeleteFunc(pool, func(id sqldb.RowID) bool { return !keep(id) })
	}
	ceiling := float64(maxGroupLen(in))
	out := make([]Answer, 0, len(pool))
	for i, id := range pool {
		if i > 0 && pool[i-1] >= id {
			t.Fatalf("%s: candidate pool not strictly ascending at %d: %d then %d", in, i, pool[i-1], id)
		}
		sc, dropped := sim.RowRankSim(v.Row(id), in.Groups)
		if sc > ceiling {
			t.Fatalf("%s: row %d scores %v, above the Rank_Sim ceiling %v", in, id, sc, ceiling)
		}
		a := Answer{ID: id, RankSim: sc, DroppedCond: dropped}
		if dropped >= 0 && dropped < len(conds) {
			a.SimilarityUsed = similarityName(&conds[dropped])
		}
		out = append(out, a)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].RankSim != out[j].RankSim {
			return out[i].RankSim > out[j].RankSim
		}
		return out[i].ID < out[j].ID
	})
	return out[:min(want, len(out))]
}

// exactIDs returns the ids of the exact answers answerIn gives sel
// under p, superlative semantics included.
func exactIDs(t *testing.T, s *System, v sqldb.View, sel *sql.Select, in *boolean.Interpretation, p part) []sqldb.RowID {
	t.Helper()
	answers, n, _, _, err := answerIn(s, v, sel, in, p, asAnswer)
	if err != nil {
		t.Fatalf("%s: %v", in, err)
	}
	ids := make([]sqldb.RowID, n)
	for i := range ids {
		ids[i] = answers[i].ID
	}
	return ids
}

// partials runs partialAnswers as answerIn does, over a candidate pool
// taken in a scratch of its own.
func partials(s *System, v sqldb.View, in *boolean.Interpretation, exact []sqldb.RowID, want int, p part) []Answer {
	pool := s.candidatePool(v, in, BuildSelect(v.Schema(), in, 0).Where, exact, new(relaxScratch))
	return partialAnswers(s, nil, v, in, pool, want, p, similarityNames(in.AllConditions()), asAnswer)
}

// samePartials compares IDs, RankSim bits, dropped condition,
// similarity label and order.
func samePartials(got, want []Answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || math.Float64bits(g.RankSim) != math.Float64bits(w.RankSim) ||
			g.DroppedCond != w.DroppedCond || g.SimilarityUsed != w.SimilarityUsed {
			return fmt.Errorf("answer %d = {id %d sim %v drop %d %q}, reference {id %d sim %v drop %d %q}",
				i, g.ID, g.RankSim, g.DroppedCond, g.SimilarityUsed, w.ID, w.RankSim, w.DroppedCond, w.SimilarityUsed)
		}
	}
	return nil
}

// TestPartialAnswersCeilingStop holds partialAnswers, which stops
// scoring once its top-K is full at the Rank_Sim ceiling, to scoring
// every candidate — over generated questions on the seed-42 8×500
// corpus (negations, superlatives, mutually exclusive values, explicit
// OR), relaxation depth 1 and 2, the paper's interpreter and the strict
// one's OR-groups (boolean.InterpretStrict), a scatter leg's hash-slice
// filter, and answer budgets of the monolith's remainder, a full page
// and one.
func TestPartialAnswersCeilingStop(t *testing.T) {
	db, ti, ws := ceilingDB(t)
	half := partition.Slice{Index: 1, Count: 2}
	keep := func(id sqldb.RowID) bool { return half.ContainsKey(uint64(id)) }
	asked := map[string]int{}
	for _, depth := range []int{1, 2} {
		sys, err := New(Config{DB: db, TI: ti, WS: ws, RelaxationDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		for _, strict := range []bool{false, true} {
			interpret := boolean.Interpret
			if strict {
				interpret = boolean.InterpretStrict
			}
			for ci, d := range schema.DomainNames {
				tbl, _ := db.TableForDomain(d)
				var qs []string
				for _, q := range questions.NewGenerator(tbl, 42+404+int64(ci)).Generate(60, questions.DefaultOptions()) {
					qs = append(qs, q.Text)
				}
				for _, ad := range overshootAds {
					if ad.domain == d {
						qs = append(qs, ad.ask)
					}
				}
				for _, q := range qs {
					tag := fmt.Sprintf("depth=%d strict=%v %s %q", depth, strict, d, q)
					in := ResolveIncomplete(tbl.Schema(), interpret(tbl.Schema(), sys.taggers[d].Tag(q)))
					if in.Empty || len(in.AllConditions()) == 0 {
						continue
					}
					asked[shapeOf(in)]++
					sel := BuildSelect(tbl.Schema(), in, sys.maxAnswers)
					tbl.View(func(v sqldb.View) {
						exact := exactIDs(t, sys, v, sel, in, part{})
						for _, want := range []int{sys.maxAnswers - len(exact), sys.maxAnswers, 1} {
							if want <= 0 {
								continue
							}
							got := partials(sys, v, in, exact, want, part{})
							ref := rankEveryCandidate(t, sys, v, in, exact, want, nil)
							if err := samePartials(got, ref); err != nil {
								t.Fatalf("%s want %d: %v", tag, want, err)
							}
						}
						var exactK []sqldb.RowID
						if in.Superlative != nil {
							exactK = exactIDs(t, sys, v, sel, in, part{keep: keep, merged: true})
						} else {
							exactK = slices.DeleteFunc(slices.Clone(exact), func(id sqldb.RowID) bool { return !keep(id) })
						}
						got := partials(sys, v, in, exactK, sys.maxAnswers, part{keep: keep})
						ref := rankEveryCandidate(t, sys, v, in, exactK, sys.maxAnswers, keep)
						if err := samePartials(got, ref); err != nil {
							t.Fatalf("%s scatter slice %s: %v", tag, half, err)
						}
					})
				}
			}
		}
	}
	// The mix must actually contain the shapes the stop has to get
	// right, or the comparison proves little.
	for _, shape := range []string{"superlative", "negation", "or-groups", "single"} {
		if asked[shape] == 0 {
			t.Errorf("no %s question was compared", shape)
		}
	}
	t.Logf("compared shapes: %v", asked)
}

// shapeOf names the one feature of an interpretation the ceiling
// coverage check counts.
func shapeOf(in *boolean.Interpretation) string {
	switch {
	case in.Superlative != nil:
		return "superlative"
	case len(in.Groups) > 1:
		return "or-groups"
	}
	for _, c := range in.AllConditions() {
		if c.Negated {
			return "negation"
		}
	}
	if in.ConditionCount() == 1 {
		return "single"
	}
	return "conjunction"
}

// TestOvershootAdsScoreAtCeiling: the overshoot ads sit in their
// question's candidate pool and score exactly the ceiling, 1 — the
// clamped Feat_Sim — not a hair above it.
func TestOvershootAdsScoreAtCeiling(t *testing.T) {
	db, ti, ws := ceilingDB(t)
	sys, err := New(Config{DB: db, TI: ti, WS: ws})
	if err != nil {
		t.Fatal(err)
	}
	for _, ad := range overshootAds {
		tbl, _ := db.TableForDomain(ad.domain)
		id := sqldb.RowID(tbl.Slots() - 1)
		in := ResolveIncomplete(tbl.Schema(), boolean.Interpret(tbl.Schema(), sys.taggers[ad.domain].Tag(ad.ask)))
		if in.Superlative == nil || in.ConditionCount() != 1 {
			t.Fatalf("%q interprets as %s, want one condition and a superlative", ad.ask, in)
		}
		tbl.View(func(v sqldb.View) {
			sel := BuildSelect(tbl.Schema(), in, sys.maxAnswers)
			exact := exactIDs(t, sys, v, sel, in, part{})
			if !slices.Contains(sys.candidatePool(v, in, sel.Where, exact, new(relaxScratch)), id) {
				t.Fatalf("%q: overshoot ad %d not in the candidate pool", ad.ask, id)
			}
		})
		if sc, _ := sys.sims[ad.domain].BestRankSimOverGroups(tbl, id, in.Groups); sc != 1 {
			t.Errorf("%q: overshoot ad scores %v, want exactly 1", ad.ask, sc)
		}
	}
}
