package core

import (
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
	// "Honda accord 2000": three readings; "less than 4000": two.
	s := schema.Cars()
	base := []boolean.Condition{
		cond("make", schema.TypeI, "honda"),
		{Attr: "", Type: schema.TypeIII, Op: boolean.OpEq, X: 2000},
	}
	in := &boolean.Interpretation{Groups: []boolean.Group{{Conds: base}}}
	out := ResolveIncomplete(s, in)
	if len(out.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(out.Groups))
	}
	// Every expanded group keeps the anchor condition.
	for _, g := range out.Groups {
		if g.Conds[0].Attr != "make" {
			t.Errorf("anchor lost: %s", g.String())
		}
		if g.Conds[1].Attr == "" {
			t.Errorf("number left unanchored: %s", g.String())
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
