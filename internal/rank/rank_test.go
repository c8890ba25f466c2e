package rank

import (
	"testing"

	"repro/internal/boolean"
	"repro/internal/qlog"
	"repro/internal/schema"
	"repro/internal/sqldb"
	"repro/internal/wsmatrix"
)

// rankDB builds a small car table with controlled values.
func rankDB(t *testing.T) (*sqldb.Table, *Similarity) {
	t.Helper()
	s := schema.Cars()
	tbl, err := sqldb.NewTable(s)
	if err != nil {
		t.Fatal(err)
	}
	rows := []map[string]sqldb.Value{
		// 0: the perfect car for "honda accord blue < 15000".
		{"make": sqldb.String("honda"), "model": sqldb.String("accord"),
			"color": sqldb.String("blue"), "price": sqldb.Number(12000), "year": sqldb.Number(2006)},
		// 1: right car, price slightly over.
		{"make": sqldb.String("honda"), "model": sqldb.String("accord"),
			"color": sqldb.String("blue"), "price": sqldb.Number(16500), "year": sqldb.Number(2007)},
		// 2: right car, price far over.
		{"make": sqldb.String("honda"), "model": sqldb.String("accord"),
			"color": sqldb.String("blue"), "price": sqldb.Number(40000), "year": sqldb.Number(2010)},
		// 3: wrong color.
		{"make": sqldb.String("honda"), "model": sqldb.String("accord"),
			"color": sqldb.String("gold"), "price": sqldb.Number(9000), "year": sqldb.Number(2004)},
		// 4: wrong model.
		{"make": sqldb.String("honda"), "model": sqldb.String("civic"),
			"color": sqldb.String("blue"), "price": sqldb.Number(9000), "year": sqldb.Number(2004)},
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	sim := qlog.NewSimulator(s, 5)
	ti := qlog.BuildTIMatrix(sim.Simulate("cars", 300))
	ws := wsmatrix.BuildForDomains([]*schema.Schema{s}, 30, 5)
	return tbl, &Similarity{Schema: s, TI: ti, WS: ws}
}

func accordConds() []boolean.Condition {
	return []boolean.Condition{
		{Attr: "make", Type: schema.TypeI, Values: []string{"honda"}},
		{Attr: "model", Type: schema.TypeI, Values: []string{"accord"}},
		{Attr: "color", Type: schema.TypeII, Values: []string{"blue"}},
		{Attr: "price", Type: schema.TypeIII, Op: boolean.OpLt, X: 15000},
	}
}

func TestNumSimPaperExample4(t *testing.T) {
	// Num_Sim($10,000, $7,500) = 0.75 and Num_Sim($10,000, $11,000) =
	// 0.90 with a 10,000 price range.
	if got := NumSim(10000, 7500, 10000); got != 0.75 {
		t.Errorf("NumSim = %g, want 0.75", got)
	}
	if got := NumSim(10000, 11000, 10000); got != 0.9 {
		t.Errorf("NumSim = %g, want 0.90", got)
	}
	if got := NumSim(0, 1e9, 10); got != 0 {
		t.Errorf("NumSim clamps at 0, got %g", got)
	}
	if got := NumSim(5, 5, 0); got != 0 {
		t.Errorf("zero range should score 0, got %g", got)
	}
}

func TestSatisfies(t *testing.T) {
	tbl, _ := rankDB(t)
	conds := accordConds()
	if !SatisfiesAll(tbl, 0, conds) {
		t.Error("row 0 should satisfy everything")
	}
	if SatisfiesAll(tbl, 1, conds) {
		t.Error("row 1 violates the price bound")
	}
	if got := CountSatisfied(tbl, 1, conds); got != 3 {
		t.Errorf("row 1 satisfies %d, want 3", got)
	}
	neg := boolean.Condition{Attr: "color", Type: schema.TypeII, Values: []string{"gold"}, Negated: true}
	if Satisfies(tbl, 3, &neg) {
		t.Error("negated condition on matching value should fail")
	}
	if !Satisfies(tbl, 0, &neg) {
		t.Error("negated condition on different value should pass")
	}
}

func TestSatisfiesShorthand(t *testing.T) {
	tbl, _ := rankDB(t)
	c := boolean.Condition{Attr: "model", Type: schema.TypeI, Values: []string{"accrd"}}
	if !Satisfies(tbl, 0, &c) {
		t.Error("shorthand value should satisfy via subsequence rule")
	}
}

func TestRankSimOrdering(t *testing.T) {
	tbl, sim := rankDB(t)
	conds := accordConds()
	// Near-miss price must outrank far-miss price (Eq. 4/5).
	s1, d1 := sim.BestRankSim(tbl, 1, conds)
	s2, d2 := sim.BestRankSim(tbl, 2, conds)
	if s1 <= s2 {
		t.Errorf("near price %g <= far price %g", s1, s2)
	}
	if d1 != 3 || d2 != 3 {
		t.Errorf("dropped conds = %d, %d, want 3 (price)", d1, d2)
	}
	// Perfect match scores N.
	s0, _ := sim.BestRankSim(tbl, 0, conds)
	if s0 != float64(len(conds)) {
		t.Errorf("perfect match = %g, want %d", s0, len(conds))
	}
	// All partial scores lie in [N-1, N] when N-1 conditions hold.
	for _, id := range []sqldb.RowID{1, 2, 3, 4} {
		s, _ := sim.BestRankSim(tbl, id, conds)
		if s < float64(len(conds))-1 || s > float64(len(conds)) {
			t.Errorf("row %d score %g outside [N-1, N]", id, s)
		}
	}
}

func TestCQAdsRankerOrder(t *testing.T) {
	tbl, sim := rankDB(t)
	q := &Query{Text: "honda accord blue under 15000", Conds: accordConds()}
	r := &CQAds{Sim: sim}
	got := r.Rank(q, tbl, []sqldb.RowID{4, 3, 2, 1, 0})
	if got[0] != 0 {
		t.Errorf("perfect match not first: %v", got)
	}
	// Near price miss (1) before far price miss (2).
	pos := map[sqldb.RowID]int{}
	for i, id := range got {
		pos[id] = i
	}
	if pos[1] >= pos[2] {
		t.Errorf("ordering = %v", got)
	}
}

func TestRandomRankerIsPermutation(t *testing.T) {
	tbl, _ := rankDB(t)
	q := &Query{Text: "any"}
	r := &Random{Seed: 3}
	in := []sqldb.RowID{0, 1, 2, 3, 4}
	out := r.Rank(q, tbl, in)
	if len(out) != len(in) {
		t.Fatalf("length changed: %v", out)
	}
	seen := map[sqldb.RowID]bool{}
	for _, id := range out {
		seen[id] = true
	}
	if len(seen) != len(in) {
		t.Errorf("not a permutation: %v", out)
	}
	// Determinism for a fixed seed and query.
	out2 := r.Rank(q, tbl, in)
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("Random ranker not deterministic for fixed seed")
		}
	}
}

func TestCosineRanker(t *testing.T) {
	tbl, _ := rankDB(t)
	q := &Query{Text: "q", Conds: accordConds()}
	got := Cosine{}.Rank(q, tbl, []sqldb.RowID{2, 0, 4})
	// Row 0 satisfies 4/4; rows 2 and 4 satisfy 3/4.
	if got[0] != 0 {
		t.Errorf("cosine order = %v", got)
	}
}

func TestAIMQRanker(t *testing.T) {
	tbl, _ := rankDB(t)
	a := NewAIMQ(tbl)
	q := &Query{Text: "q", Conds: accordConds()}
	got := a.Rank(q, tbl, []sqldb.RowID{0, 1, 2, 3, 4})
	// AIMQ's Eq. 9 numeric term measures closeness to the query value
	// regardless of bound direction, so rows 0 (12000) and 1 (16500)
	// both score near the top; the far-price row 2 (40000) must sink
	// to the bottom.
	if got[0] != 0 && got[0] != 1 {
		t.Errorf("AIMQ order = %v", got)
	}
	if got[len(got)-1] != 2 {
		t.Errorf("far-price row should rank last: %v", got)
	}
	// Jaccard of a value with itself is well-defined and high.
	if j := a.jaccard("color", "blue", "blue"); j != 1 {
		t.Errorf("self-jaccard = %g", j)
	}
	if j := a.jaccard("color", "blue", "nosuch"); j != 0 {
		t.Errorf("unknown value jaccard = %g", j)
	}
}

func TestFAQFinderRanker(t *testing.T) {
	tbl, _ := rankDB(t)
	f := NewFAQFinder(tbl)
	q := &Query{Text: "honda accord blue", Conds: accordConds()}
	got := f.Rank(q, tbl, []sqldb.RowID{4, 0})
	// Row 0 matches all three query terms; row 4 misses "accord".
	if got[0] != 0 {
		t.Errorf("FAQFinder order = %v", got)
	}
}

func TestCondSimNegated(t *testing.T) {
	tbl, sim := rankDB(t)
	neg := boolean.Condition{Attr: "color", Type: schema.TypeII, Values: []string{"blue"}, Negated: true}
	// Row 0 is blue: matching a negated value → dissimilar (0).
	if got := sim.condSimVal(tbl.Value(0, neg.Attr), &neg); got != 0 {
		t.Errorf("negated matching value = %g, want 0", got)
	}
}

func TestCondSimBetween(t *testing.T) {
	tbl, sim := rankDB(t)
	c := boolean.Condition{Attr: "price", Type: schema.TypeIII, Op: boolean.OpBetween, X: 10000, Y: 14000}
	if got := sim.condSimVal(tbl.Value(0, c.Attr), &c); got != 1 {
		t.Errorf("inside range = %g, want 1", got)
	}
	c2 := c
	c2.Y = 11000
	got := sim.condSimVal(tbl.Value(0, c2.Attr), &c2) // price 12000, nearest bound 11000
	want := NumSim(11000, 12000, 79500)
	if got != want {
		t.Errorf("outside range = %g, want %g", got, want)
	}
}

func TestBestRankSimOverGroups(t *testing.T) {
	tbl, sim := rankDB(t)
	groups := []boolean.Group{
		{Conds: accordConds()},
		{Conds: []boolean.Condition{
			{Attr: "model", Type: schema.TypeI, Values: []string{"civic"}},
		}},
	}
	// Row 4 (civic) fully satisfies group 2 → score 1 from it, but
	// group 1 gives 3 + sim, which is higher.
	s, _ := sim.BestRankSimOverGroups(tbl, 4, groups)
	if s < 3 {
		t.Errorf("cross-group best = %g, want >= 3", s)
	}
}
