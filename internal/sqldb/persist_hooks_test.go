package sqldb

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/schema"
)

// restoreTable builds a fresh table over the same schema and restores
// the exported state of src into it.
func restoreTable(t *testing.T, src *Table) *Table {
	t.Helper()
	dst, err := NewTable(src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	slots, rows := src.ExportState()
	if err := dst.RestoreState(slots, rows); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestExportRestoreRoundTrip: a restored table answers every index
// path identically to the source, tombstoned slots stay retired, and
// the next Insert continues the RowID sequence.
func TestExportRestoreRoundTrip(t *testing.T) {
	tbl, err := NewTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	ads := []map[string]Value{
		{"make": String("honda"), "model": String("accord"), "color": String("red"), "price": Number(9000), "year": Number(2004)},
		{"make": String("honda"), "model": String("civic"), "color": String("blue"), "price": Number(7000)},
		{"make": String("toyota"), "model": String("camry"), "price": Number(11000), "mileage": Number(42000)},
		{"make": String("bmw"), "model": String("m3")}, // NULL price
		{"make": String("lexus"), "model": String("es350"), "color": String("gold"), "price": Number(31337)},
	}
	for _, ad := range ads {
		if _, err := tbl.Insert(ad); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete(1); err != nil { // tombstone mid-range
		t.Fatal(err)
	}

	rt := restoreTable(t, tbl)
	if rt.Len() != tbl.Len() || rt.Slots() != tbl.Slots() {
		t.Fatalf("restored len/slots = %d/%d, want %d/%d", rt.Len(), rt.Slots(), tbl.Len(), tbl.Slots())
	}
	if _, ok := rt.Get(1); ok {
		t.Error("tombstoned row 1 alive after restore")
	}
	if !reflect.DeepEqual(rt.AllRowIDs(), tbl.AllRowIDs()) {
		t.Errorf("AllRowIDs = %v, want %v", rt.AllRowIDs(), tbl.AllRowIDs())
	}
	// Hash index (Type I/II), ordered index (Type III).
	for _, c := range []struct {
		col string
		v   Value
	}{
		{"make", String("honda")},
		{"color", String("red")},
		{"model", String("es350")},
	} {
		if got, want := rt.LookupEqual(c.col, c.v), tbl.LookupEqual(c.col, c.v); !reflect.DeepEqual(got, want) {
			t.Errorf("LookupEqual(%s, %v) = %v, want %v", c.col, c.v, got, want)
		}
	}
	if got, want := rt.LookupRange("price", 8000, math.Inf(1), true, true), tbl.LookupRange("price", 8000, math.Inf(1), true, true); !reflect.DeepEqual(got, want) {
		t.Errorf("LookupRange = %v, want %v", got, want)
	}
	// NULL round-trips as NULL.
	if !rt.Value(3, "price").IsNull() {
		t.Errorf("NULL price restored as %#v", rt.Value(3, "price"))
	}
	// Records identical column by column.
	for _, id := range tbl.AllRowIDs() {
		if !reflect.DeepEqual(rt.RecordMap(id), tbl.RecordMap(id)) {
			t.Errorf("row %d: restored %v, want %v", id, rt.RecordMap(id), tbl.RecordMap(id))
		}
	}
	// RowID sequence continues past the retired slot range.
	id, err := rt.Insert(map[string]Value{"make": String("kia"), "model": String("sorento")})
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != tbl.Slots() {
		t.Errorf("next RowID after restore = %d, want %d", id, tbl.Slots())
	}
	// The version moved, so derived caches recompute.
	fresh, _ := NewTable(schema.Cars())
	if rt.Version() == fresh.Version() {
		t.Error("restore did not move the table version")
	}
}

// TestRestoreStateRejectsBadInput covers the corruption guards.
func TestRestoreStateRejectsBadInput(t *testing.T) {
	tbl, err := NewTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	n := len(schema.Cars().Attrs)
	mk := func(id RowID) Record { return Record{ID: id, Values: make([]Value, n)} }
	if err := tbl.RestoreState(1, []Record{mk(1)}); err == nil {
		t.Error("id beyond slots accepted")
	}
	if err := tbl.RestoreState(3, []Record{mk(1), mk(0)}); err == nil {
		t.Error("descending ids accepted")
	}
	if err := tbl.RestoreState(3, []Record{mk(0), mk(0)}); err == nil {
		t.Error("duplicate ids accepted")
	}
	if err := tbl.RestoreState(2, []Record{{ID: 0, Values: make([]Value, n-1)}}); err == nil {
		t.Error("short value row accepted")
	}
}
