package sqldb

import (
	"math"
	"reflect"
	"testing"
)

// The scan tests check the Append* forms the streaming executor drives
// against the Lookup* forms the eager evaluator uses.

func TestScanEqualMatchesLookup(t *testing.T) {
	tbl := carsTable(t)
	for _, v := range []Value{String("honda"), String("kia"), Number(2004)} {
		for _, col := range []string{"make", "year"} {
			want := tbl.LookupEqual(col, v)
			got := tbl.AppendEqual(nil, col, v)
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("AppendEqual(%s, %v) = %v, LookupEqual = %v", col, v, got, want)
			}
		}
	}
	// Appends after the buffer's existing contents.
	prefix := []RowID{42}
	got := tbl.AppendEqual(prefix, "make", String("honda"))
	if want := append([]RowID{42}, tbl.LookupEqual("make", String("honda"))...); !reflect.DeepEqual(got, want) {
		t.Errorf("AppendEqual onto [42] = %v, want %v", got, want)
	}
	if ids := tbl.AppendEqual(nil, "ghost", String("x")); ids != nil {
		t.Errorf("AppendEqual on unknown column = %v", ids)
	}
}

func TestScanRangeYieldsRangeRowsUnordered(t *testing.T) {
	tbl := carsTable(t)
	want := tbl.LookupRange("price", 8000, 12000, true, true) // RowID-sorted
	got := tbl.AppendRange(nil, "price", 8000, 12000, true, true)
	set := map[RowID]bool{}
	for _, id := range got {
		set[id] = true
	}
	if len(got) != len(want) {
		t.Fatalf("AppendRange = %v, LookupRange = %v", got, want)
	}
	for _, id := range want {
		if !set[id] {
			t.Errorf("AppendRange missing row %d", id)
		}
	}
	// Range scan on a column with no ordered index falls back to a
	// numeric scan, like LookupRange does.
	if ids := tbl.AppendRange(nil, "make", 0, math.Inf(1), true, true); len(ids) != 0 {
		t.Errorf("AppendRange over string column = %v", ids)
	}
}

func TestScanSubstringAndAll(t *testing.T) {
	tbl := carsTable(t)
	if got := tbl.AppendLiveIDs(nil); !reflect.DeepEqual(got, tbl.AllRowIDs()) || len(got) != tbl.Len() {
		t.Errorf("AppendLiveIDs = %v, AllRowIDs = %v, table has %d rows", got, tbl.AllRowIDs(), tbl.Len())
	}
}

// TestMatchRowMirrorsIndexSemantics: a residual predicate selects
// exactly the rows of the lookup it stands in for. On a hash-indexed
// column that is the index's key equality, so the numeric spellings
// '2', '2.0' and '2e0' are one value, -0 and 0 are two, and NULL
// equals nothing.
func TestMatchRowMirrorsIndexSemantics(t *testing.T) {
	tbl := carsTable(t)
	for _, doors := range []Value{String("2"), String("2.0"), String("2e0"), Number(2),
		String("0"), String("-0"), String("NaN"), String("two"), String(""), Number(math.NaN())} {
		if _, err := tbl.Insert(map[string]Value{"make": String("kia"), "doors": doors}); err != nil {
			t.Fatal(err)
		}
	}
	type mirror struct {
		name string
		p    Pred
		want []RowID
	}
	cases := []mirror{
		{"equal", NewEqualPred("make", String("honda")), tbl.LookupEqual("make", String("honda"))},
		{"equal-numeric-coercion", NewEqualPred("year", String("2004")), tbl.LookupEqual("year", String("2004"))},
		{"range", NewRangePred("price", 9000, 12000, true, false), tbl.LookupRange("price", 9000, 12000, true, false)},
	}
	for _, lit := range []Value{String("2"), String("2.0"), Number(2), String("0"), String("-0"),
		Number(0), String("nan"), Number(math.NaN()), String("two"), String(""), Null} {
		cases = append(cases, mirror{"doors = " + lit.GoString(), NewEqualPred("doors", lit), tbl.LookupEqual("doors", lit)})
	}
	for _, c := range cases {
		var got []RowID
		for _, id := range tbl.AllRowIDs() {
			if tbl.MatchRow(id, c.p) {
				got = append(got, id)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: MatchRow selects %v, index path selects %v", c.name, got, c.want)
		}
		// The negated predicate selects exactly the live complement.
		var neg []RowID
		for _, id := range tbl.AllRowIDs() {
			if tbl.MatchRow(id, c.p.Negated()) {
				neg = append(neg, id)
			}
		}
		if len(neg)+len(c.want) != tbl.Len() {
			t.Errorf("%s: negated match + match = %d+%d rows, table has %d",
				c.name, len(neg), len(c.want), tbl.Len())
		}
	}
	if tbl.MatchRow(99, NewEqualPred("make", String("honda"))) {
		t.Error("MatchRow on a missing row matched")
	}
	if tbl.MatchRow(0, NewEqualPred("ghost", String("x"))) {
		t.Error("MatchRow on an unknown column matched")
	}
}

func TestMatchRowDeadRowNeverMatches(t *testing.T) {
	tbl := carsTable(t)
	p := NewEqualPred("make", String("honda"))
	if !tbl.MatchRow(0, p) {
		t.Fatal("row 0 should match before delete")
	}
	if err := tbl.Delete(0); err != nil {
		t.Fatal(err)
	}
	if tbl.MatchRow(0, p) {
		t.Error("deleted row matched")
	}
	if tbl.MatchRow(0, p.Negated()) {
		t.Error("deleted row matched a negated predicate")
	}
}

func TestFilterMatchStreamsResiduals(t *testing.T) {
	tbl := carsTable(t)
	// Drive make = honda, residual price <= 10000 → row 0 only.
	got := tbl.FilterMatch(
		tbl.AppendEqual(nil, "make", String("honda")),
		[]Pred{NewRangePred("price", math.Inf(-1), 10000, false, true)},
		nil, 0)
	if !reflect.DeepEqual(got, []RowID{0}) {
		t.Fatalf("FilterMatch = %v, want [0]", got)
	}
	// Membership set residual.
	got = tbl.FilterMatch(tbl.AllRowIDs(), nil, [][]RowID{{1, 3}}, 0)
	if !reflect.DeepEqual(got, []RowID{1, 3}) {
		t.Fatalf("FilterMatch with set = %v, want [1 3]", got)
	}
	// Limit stops early.
	got = tbl.FilterMatch(tbl.AllRowIDs(), nil, nil, 2)
	if !reflect.DeepEqual(got, []RowID{0, 1}) {
		t.Fatalf("FilterMatch with limit = %v, want [0 1]", got)
	}
}
