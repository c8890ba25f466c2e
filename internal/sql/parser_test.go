package sql_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sql/sqltest"
	"repro/internal/sqldb"
)

func TestParseSimpleSelect(t *testing.T) {
	sel, err := sqltest.Parse("SELECT * FROM car_ads WHERE make = 'honda' AND price < 5000 LIMIT 30")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Table != "car_ads" || sel.Limit != 30 {
		t.Fatalf("sel = %+v", sel)
	}
	and, ok := sel.Where.(*sql.And)
	if !ok || len(and.Operands) != 2 {
		t.Fatalf("Where = %#v", sel.Where)
	}
	cmp := and.Operands[0].(*sql.Compare)
	if cmp.Column != "make" || cmp.Op != sql.OpEq || cmp.Value.Str() != "honda" {
		t.Errorf("first operand = %+v", cmp)
	}
}

func TestParsePrecedenceOrOverAnd(t *testing.T) {
	sel, err := sqltest.Parse("SELECT * FROM t WHERE a = 1 AND b = 2 OR c = 3")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := sel.Where.(*sql.Or)
	if !ok || len(or.Operands) != 2 {
		t.Fatalf("top = %#v, want OR of 2", sel.Where)
	}
	if _, ok := or.Operands[0].(*sql.And); !ok {
		t.Errorf("left = %#v, want AND", or.Operands[0])
	}
}

func TestParseParenthesesOverridePrecedence(t *testing.T) {
	sel, err := sqltest.Parse("SELECT * FROM t WHERE a = 1 AND (b = 2 OR c = 3)")
	if err != nil {
		t.Fatal(err)
	}
	and, ok := sel.Where.(*sql.And)
	if !ok {
		t.Fatalf("top = %#v, want AND", sel.Where)
	}
	if _, ok := and.Operands[1].(*sql.Or); !ok {
		t.Errorf("right = %#v, want OR", and.Operands[1])
	}
}

// TestParseBetweenLikeInNot: BETWEEN and NOT parse; IN, LIKE, <> and
// != are not part of the subset, with or without NOT.
func TestParseBetweenLikeInNot(t *testing.T) {
	sel, err := sqltest.Parse(`SELECT * FROM t WHERE price BETWEEN 2000 AND 7000
		AND NOT color = 'red'`)
	if err != nil {
		t.Fatal(err)
	}
	and := sel.Where.(*sql.And)
	if len(and.Operands) != 2 {
		t.Fatalf("operands = %d", len(and.Operands))
	}
	if b := and.Operands[0].(*sql.Between); b.Lo != 2000 || b.Hi != 7000 {
		t.Errorf("between = %+v", b)
	}
	if _, ok := and.Operands[1].(*sql.Not); !ok {
		t.Errorf("not = %#v", and.Operands[1])
	}
	for _, q := range []string{
		"SELECT * FROM t WHERE id IN (SELECT id FROM t WHERE year > 2005)",
		"SELECT * FROM t WHERE id NOT IN (SELECT id FROM t)",
		"SELECT * FROM t WHERE model LIKE '%cor%'",
		"SELECT * FROM t WHERE model NOT LIKE '%cor%'",
		"SELECT * FROM t WHERE color <> 'red'",
		"SELECT * FROM t WHERE color != 'red'",
	} {
		if _, err := sqltest.Parse(q); err == nil {
			t.Errorf("Parse(%q) accepted an operator outside the subset", q)
		}
	}
}

func TestParseOrderByAndAliases(t *testing.T) {
	sel, err := sqltest.Parse("SELECT * FROM car_ads C WHERE C.price > 100 ORDER BY price DESC")
	if err != nil {
		t.Fatal(err)
	}
	if sel.OrderBy != "price" || !sel.Desc {
		t.Errorf("order = %q desc=%v", sel.OrderBy, sel.Desc)
	}
	cmp := sel.Where.(*sql.Compare)
	if cmp.Column != "price" {
		t.Errorf("aliased column = %q", cmp.Column)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	sel, err := sqltest.Parse("SELECT * FROM t WHERE a < -1 AND b BETWEEN -5.5 AND 10")
	if err != nil {
		t.Fatal(err)
	}
	and := sel.Where.(*sql.And)
	if got := and.Operands[0].(*sql.Compare).Value.Num(); got != -1 {
		t.Errorf("negative literal = %g", got)
	}
	if b := and.Operands[1].(*sql.Between); b.Lo != -5.5 || b.Hi != 10 {
		t.Errorf("between = %+v", b)
	}
	// Round trip.
	if _, err := sqltest.Parse(sel.SQL()); err != nil {
		t.Fatalf("negative literals do not round-trip: %v (%s)", err, sel.SQL())
	}
}

func TestParseStringEscapes(t *testing.T) {
	sel, err := sqltest.Parse("SELECT * FROM t WHERE a = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Where.(*sql.Compare).Value.Str(); got != "it's" {
		t.Errorf("escaped string = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a",
		"SELECT * FROM t WHERE a = ",
		"SELECT * FROM t WHERE a BETWEEN 'x' AND 2",
		"SELECT * FROM t WHERE a LIKE 5",
		"SELECT * FROM t WHERE a IN (1, 2)",
		"SELECT * FROM t WHERE a = 'unterminated",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t trailing garbage",
		"SELECT * FROM t WHERE a = 1 !",
	}
	for _, q := range bad {
		if _, err := sqltest.Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestSQLRoundTrip(t *testing.T) {
	// Render → parse → render must be a fixed point.
	queries := []string{
		"SELECT * FROM car_ads WHERE make = 'honda' AND model = 'accord' LIMIT 30",
		"SELECT * FROM car_ads WHERE (make = 'toyota' AND model = 'corolla') OR (color = 'silver' AND NOT (transmission = 'manual'))",
		"SELECT * FROM car_ads WHERE price BETWEEN 2000 AND 7000 ORDER BY price LIMIT 5",
		"SELECT * FROM car_ads WHERE NOT (model = 'corolla') ORDER BY year DESC",
	}
	for _, q := range queries {
		sel, err := sqltest.Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		rendered := sel.SQL()
		sel2, err := sqltest.Parse(rendered)
		if err != nil {
			t.Fatalf("reparse(%q): %v", rendered, err)
		}
		if sel2.SQL() != rendered {
			t.Errorf("round trip unstable:\n  %s\n  %s", rendered, sel2.SQL())
		}
	}
}

func TestLiteralRendering(t *testing.T) {
	c := &sql.Compare{Column: "a", Op: sql.OpEq, Value: sqldb.String("it's")}
	if !strings.Contains(c.SQL(), "''") {
		t.Errorf("quote not escaped: %s", c.SQL())
	}
}

// numbers appends e's numeric literals in tree order.
func numbers(dst []float64, e sql.Expr) []float64 {
	switch x := e.(type) {
	case *sql.Compare:
		if x.Value.IsNumber() {
			dst = append(dst, x.Value.Num())
		}
	case *sql.Between:
		dst = append(dst, x.Lo, x.Hi)
	case *sql.And:
		for _, op := range x.Operands {
			dst = numbers(dst, op)
		}
	case *sql.Or:
		for _, op := range x.Operands {
			dst = numbers(dst, op)
		}
	case *sql.Not:
		dst = numbers(dst, x.Operand)
	}
	return dst
}

// TestParseNumbersRoundTripExactly: a rendered literal parses back to
// the bit-identical double, for the two-decimal grid 0.00–20.00 and
// every Type III value of the eight seed-42 tables of 500 ads (the
// corpus cqads.Open builds at that seed). Building decimals digit by
// digit misreads a fifth of the grid, e.g. 0.12 as
// 0.12000000000000001.
func TestParseNumbersRoundTripExactly(t *testing.T) {
	var values []float64
	for i := 0; i <= 2000; i++ {
		values = append(values, float64(i)/100, -float64(i)/100)
	}
	db := sqldb.NewDB()
	for ci, d := range schema.DomainNames {
		tbl, err := adsgen.NewGenerator(42+int64(ci)*7919).Populate(db, schema.ByName(d), 500)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range tbl.Schema().NumericAttrs() {
			for _, id := range tbl.AllRowIDs() {
				if v := tbl.Value(id, a.Name); v.IsNumber() {
					values = append(values, v.Num())
				}
			}
		}
	}
	bad := 0
	for _, v := range values {
		sel := &sql.Select{Table: "t", Where: &sql.And{Operands: []sql.Expr{
			&sql.Compare{Column: "a", Op: sql.OpEq, Value: sqldb.Number(v)},
			&sql.Between{Column: "b", Lo: v, Hi: v},
		}}}
		got, err := sqltest.Parse(sel.SQL())
		if err != nil {
			t.Fatalf("%s: %v", sel.SQL(), err)
		}
		for _, g := range numbers(nil, got.Where) {
			if math.Float64bits(g) != math.Float64bits(v) {
				if bad++; bad <= 5 {
					t.Errorf("%s reads back %v, want %v", sel.SQL(), g, v)
				}
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d literals did not round-trip", bad, 3*len(values))
	}
}
