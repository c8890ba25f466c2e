package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/boolean"
	"repro/internal/schema"
	"repro/internal/sql/sqltest"
)

func cond(attr string, t schema.AttrType, vals ...string) boolean.Condition {
	return boolean.Condition{Attr: attr, Type: t, Values: vals}
}

func numCond(attr string, op boolean.CompOp, x float64) boolean.Condition {
	return boolean.Condition{Attr: attr, Type: schema.TypeIII, Op: op, X: x}
}

func TestBuildSelectSingleGroup(t *testing.T) {
	s := schema.Cars()
	in := &boolean.Interpretation{Groups: []boolean.Group{{Conds: []boolean.Condition{
		cond("make", schema.TypeI, "honda"),
		cond("color", schema.TypeII, "blue"),
		numCond("price", boolean.OpLt, 15000),
	}}}}
	sel := BuildSelect(s, in, 30)
	want := "SELECT * FROM car_ads WHERE make = 'honda' AND color = 'blue' AND price < 15000 LIMIT 30"
	if sel.SQL() != want {
		t.Errorf("SQL = %s\nwant %s", sel.SQL(), want)
	}
	// Must parse back.
	if _, err := sqltest.Parse(sel.SQL()); err != nil {
		t.Errorf("generated SQL does not parse: %v", err)
	}
}

func TestBuildSelectMultiValueAndNegation(t *testing.T) {
	s := schema.Cars()
	neg := cond("transmission", schema.TypeII, "manual")
	neg.Negated = true
	in := &boolean.Interpretation{Groups: []boolean.Group{{Conds: []boolean.Condition{
		cond("color", schema.TypeII, "black", "grey"),
		neg,
	}}}}
	got := BuildSelect(s, in, 0).SQL()
	for _, want := range []string{
		"(color = 'black' OR color = 'grey')",
		"NOT (transmission = 'manual')",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("SQL missing %q: %s", want, got)
		}
	}
}

func TestBuildSelectGroupsOrdered(t *testing.T) {
	s := schema.Cars()
	in := &boolean.Interpretation{Groups: []boolean.Group{
		{Conds: []boolean.Condition{cond("make", schema.TypeI, "toyota")}},
		{Conds: []boolean.Condition{cond("make", schema.TypeI, "honda")}},
	}}
	got := BuildSelect(s, in, 0).SQL()
	if !strings.Contains(got, "make = 'toyota' OR make = 'honda'") {
		t.Errorf("SQL = %s", got)
	}
}

func TestBuildSelectAllOperators(t *testing.T) {
	s := schema.Cars()
	ops := []boolean.CompOp{boolean.OpEq, boolean.OpLt, boolean.OpLe, boolean.OpGt, boolean.OpGe}
	wants := []string{"price = 5000", "price < 5000", "price <= 5000", "price > 5000", "price >= 5000"}
	for i, op := range ops {
		in := &boolean.Interpretation{Groups: []boolean.Group{{Conds: []boolean.Condition{
			numCond("price", op, 5000),
		}}}}
		got := BuildSelect(s, in, 0).SQL()
		if !strings.Contains(got, wants[i]) {
			t.Errorf("op %v: SQL = %s", op, got)
		}
	}
	between := boolean.Condition{Attr: "price", Type: schema.TypeIII, Op: boolean.OpBetween, X: 2000, Y: 7000}
	in := &boolean.Interpretation{Groups: []boolean.Group{{Conds: []boolean.Condition{between}}}}
	if got := BuildSelect(s, in, 0).SQL(); !strings.Contains(got, "price BETWEEN 2000 AND 7000") {
		t.Errorf("between SQL = %s", got)
	}
}

func TestBuildSelectSuperlative(t *testing.T) {
	s := schema.Cars()
	in := &boolean.Interpretation{
		Groups:      []boolean.Group{{Conds: []boolean.Condition{cond("make", schema.TypeI, "honda")}}},
		Superlative: &boolean.SuperlativeSpec{Attr: "year", Descending: true},
	}
	got := BuildSelect(s, in, 30).SQL()
	if !strings.Contains(got, "ORDER BY year DESC") {
		t.Errorf("SQL = %s", got)
	}
}

func TestResolveIncompleteExample3(t *testing.T) {
	// Paper Example 3: in the car-ads domain, 2000 can be a Year,
	// Price or Mileage; 4000 can be Price or Mileage but not Year; no
	// attribute admits 1e9, which resolves to one impossible condition.
	s := schema.Cars()
	for _, tc := range []struct {
		x    float64
		want []string
	}{
		{2000, []string{"year", "price", "mileage"}},
		{4000, []string{"price", "mileage"}},
		{1e9, nil},
	} {
		base := []boolean.Condition{
			cond("make", schema.TypeI, "honda"),
			{Attr: "", Type: schema.TypeIII, Op: boolean.OpEq, X: tc.x},
		}
		in := &boolean.Interpretation{Groups: []boolean.Group{{Conds: base}}}
		out := ResolveIncomplete(s, in)
		if len(out.Groups) != max(1, len(tc.want)) {
			t.Fatalf("%g: groups = %d, want %d", tc.x, len(out.Groups), max(1, len(tc.want)))
		}
		var got []string
		// Every expanded group keeps the anchor condition.
		for _, g := range out.Groups {
			if g.Conds[0].Attr != "make" {
				t.Errorf("%g: anchor lost: %s", tc.x, g.String())
			}
			if g.Conds[1].Attr == "" {
				t.Errorf("%g: number left unanchored: %s", tc.x, g.String())
			}
			if g.Conds[1].X == tc.x {
				got = append(got, g.Conds[1].Attr)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%g resolves to %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestResolveIncompleteMultipleUnanchored(t *testing.T) {
	// Two unanchored numbers expand multiplicatively, each over its
	// own candidate set.
	s := schema.Cars()
	in := &boolean.Interpretation{Groups: []boolean.Group{{Conds: []boolean.Condition{
		{Attr: "", Type: schema.TypeIII, Op: boolean.OpEq, X: 2000},   // year|price|mileage
		{Attr: "", Type: schema.TypeIII, Op: boolean.OpLt, X: 300000}, // mileage only
	}}}}
	out := ResolveIncomplete(s, in)
	if len(out.Groups) != 3 {
		t.Fatalf("groups = %d, want 3*1", len(out.Groups))
	}
}

func TestResolveIncompletePreservesAnchored(t *testing.T) {
	s := schema.Cars()
	in := &boolean.Interpretation{
		Groups:      []boolean.Group{{Conds: []boolean.Condition{numCond("price", boolean.OpLt, 9000)}}},
		Superlative: &boolean.SuperlativeSpec{Attr: "price"},
	}
	out := ResolveIncomplete(s, in)
	if len(out.Groups) != 1 || out.Groups[0].Conds[0].Attr != "price" {
		t.Errorf("anchored condition changed: %+v", out.Groups)
	}
	if out.Superlative == nil {
		t.Error("superlative dropped")
	}
}

func TestBuildSelectEmptyInterpretation(t *testing.T) {
	s := schema.Cars()
	sel := BuildSelect(s, &boolean.Interpretation{}, 30)
	if sel.Where != nil {
		t.Errorf("empty interpretation produced WHERE: %s", sel.SQL())
	}
}
