package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/schema"
)

// columnCells is the value alphabet of FuzzColumnStoreMatchesRows: NULL,
// NaN (and a NaN with the exception tag's bits), ±0, '2' and '2.0' and
// 2, plain and numeric-looking strings, and ordinary numbers. Every
// column, Type III included, may hold any of them.
var columnCells = []Value{
	Null, Number(math.NaN()), Number(math.Copysign(0, -1)), Number(0),
	String("2"), String("2.0"), Number(2), String("honda"),
	String("toyota"), Number(2.5), String("nan"), String("-0"),
	Number(math.Inf(1)), Number(math.Float64frombits(excTag | 5)), Number(-1e9), String("n/a"),
}

// sameCell reports whether two stored cells are identical: kind, text
// and float bits.
func sameCell(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	if a.IsNumber() != b.IsNumber() {
		return false
	}
	if a.IsNumber() {
		return math.Float64bits(a.n) == math.Float64bits(b.n)
	}
	return a.s == b.s
}

// refMatch is the residual predicate of the row-major store, evaluated
// on a reference row: the semantics the column store must keep.
func refMatch(s *schema.Schema, row []Value, p Pred) bool {
	var match bool
	switch p.Kind {
	case PredAny:
		for _, q := range p.Sub {
			match = match || refMatch(s, row, q)
		}
		return match != p.Negate
	case PredAll:
		match = true
		for _, q := range p.Sub {
			match = match && refMatch(s, row, q)
		}
		return match != p.Negate
	}
	i := colIndex(s, p.Col)
	val := row[i]
	switch p.Kind {
	case PredEqual:
		if p.numeric && s.Attrs[i].Type != schema.TypeIII {
			n, isNum := val.tryNum()
			match = isNum && sameNumKey(n, p.num)
		} else {
			match = val.Equal(p.Value)
		}
	case PredRange:
		if n, isNum := val.tryNum(); isNum {
			match = (n > p.Lo || p.IncLo && n == p.Lo) && (n < p.Hi || p.IncHi && n == p.Hi)
		}
	}
	return match != p.Negate
}

// colIndex returns the position of column name in s.
func colIndex(s *schema.Schema, name string) int {
	return slices.IndexFunc(s.Attrs, func(a schema.Attribute) bool { return a.Name == name })
}

// refStore is the row-major reference FuzzColumnStoreMatchesRows keeps:
// one []Value per slot (nil for a slot no row was written to) and its
// liveness.
type refStore struct {
	rows [][]Value
	dead []bool
}

func (r *refStore) live() []RowID {
	var ids []RowID
	for i, d := range r.dead {
		if !d {
			ids = append(ids, RowID(i))
		}
	}
	return ids
}

// heldRow is a Row taken during the run, with the values it must keep
// reading whatever happens to the table afterwards.
type heldRow struct {
	row  Row
	want []Value
}

// FuzzColumnStoreMatchesRows drives random Insert, InsertAt, Delete and
// ExportState→RestoreState operations on a cars table and a row-major
// reference, then holds every read of the column store to the
// reference: Get, Row (including Rows taken before later writes),
// ExportState, AppendEqual, AppendRange and IntersectMatch.
func FuzzColumnStoreMatchesRows(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0x25, 0x33, 0x46, 0x57})
	f.Add([]byte{0x04, 0x10, 0x14, 7, 0x46, 0x05, 0x06, 0x21, 0x37, 0x16, 0x15})
	rng := rand.New(rand.NewSource(3))
	for range 30 {
		ops := make([]byte, 120)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		s := schema.Cars()
		tbl, err := NewTable(s)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refStore{}
		var held []heldRow
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		newRow := func(seed byte) (map[string]Value, []Value) {
			m := map[string]Value{}
			row := make([]Value, len(s.Attrs))
			for i, a := range s.Attrs {
				b := seed + byte(i)*7 + next()
				if b%5 == 0 {
					continue // a missing column is NULL
				}
				row[i] = columnCells[int(b)%len(columnCells)]
				m[a.Name] = row[i]
			}
			return m, row
		}
		for len(ops) > 0 {
			op := next()
			switch op % 8 {
			case 0, 1, 2:
				m, row := newRow(op)
				id, err := tbl.Insert(m)
				if err != nil {
					t.Fatal(err)
				}
				if int(id) != len(ref.rows) {
					t.Fatalf("Insert = %d, want slot %d", id, len(ref.rows))
				}
				ref.rows, ref.dead = append(ref.rows, row), append(ref.dead, false)
			case 3:
				// Skip up to a group and a half of slots.
				id := RowID(len(ref.rows) + int(next())*6)
				m, row := newRow(op)
				if err := tbl.InsertAt(id, m); err != nil {
					t.Fatal(err)
				}
				for RowID(len(ref.rows)) < id {
					ref.rows, ref.dead = append(ref.rows, nil), append(ref.dead, true)
				}
				ref.rows, ref.dead = append(ref.rows, row), append(ref.dead, false)
			case 4, 5:
				live := ref.live()
				if len(live) == 0 {
					continue
				}
				id := live[int(next())%len(live)]
				if err := tbl.Delete(id); err != nil {
					t.Fatal(err)
				}
				ref.dead[id] = true
			case 6:
				slots, rows := tbl.ExportState()
				if err := tbl.RestoreState(slots, rows); err != nil {
					t.Fatal(err)
				}
			case 7:
				live := ref.live()
				if len(live) == 0 {
					continue
				}
				id := live[int(next())%len(live)]
				held = append(held, heldRow{tbl.Row(id), ref.rows[id]})
			}
		}
		checkColumnStore(t, tbl, ref)
		for _, h := range held {
			for i, want := range h.want {
				if got := h.row.At(i); !sameCell(got, want) {
					t.Fatalf("a Row held across later writes reads %s = %#v, want %#v", s.Attrs[i].Name, got, want)
				}
			}
		}
	})
}

// checkColumnStore holds every read of tbl to the reference.
func checkColumnStore(t *testing.T, tbl *Table, ref *refStore) {
	t.Helper()
	s := tbl.Schema()
	live := ref.live()
	if tbl.Slots() != len(ref.rows) || tbl.Len() != len(live) {
		t.Fatalf("table has %d slots and %d live rows, want %d and %d", tbl.Slots(), tbl.Len(), len(ref.rows), len(live))
	}
	sameRow := func(label string, got, want []Value) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
		}
		for i := range want {
			if !sameCell(got[i], want[i]) {
				t.Fatalf("%s: %s = %#v, want %#v", label, s.Attrs[i].Name, got[i], want[i])
			}
		}
	}
	for id := RowID(-1); id <= RowID(len(ref.rows)); id++ {
		alive := id >= 0 && int(id) < len(ref.rows) && !ref.dead[id]
		rec, ok := tbl.Get(id)
		row := tbl.Row(id)
		if ok != alive || row.IsZero() == alive {
			t.Fatalf("row %d: Get ok=%v, Row zero=%v, want live=%v", id, ok, row.IsZero(), alive)
		}
		if !alive {
			continue
		}
		sameRow(fmt.Sprintf("Get(%d)", id), rec.Values, ref.rows[id])
		vals := make([]Value, 0, row.Len())
		for _, v := range row.All() {
			vals = append(vals, v)
		}
		sameRow(fmt.Sprintf("Row(%d)", id), vals, ref.rows[id])
	}
	slots, rows := tbl.ExportState()
	if slots != len(ref.rows) || len(rows) != len(live) {
		t.Fatalf("ExportState: %d slots, %d rows, want %d and %d", slots, len(rows), len(ref.rows), len(live))
	}
	for i, r := range rows {
		if r.ID != live[i] {
			t.Fatalf("ExportState row %d has id %d, want %d", i, r.ID, live[i])
		}
		sameRow(fmt.Sprintf("ExportState row %d", r.ID), r.Values, ref.rows[r.ID])
	}

	for ci, a := range s.Attrs {
		for _, lit := range columnCells {
			// AppendEqual: a hash-indexed column keeps the index's key
			// equality, a Type III column Equal, in RowID order.
			var want []RowID
			for _, id := range live {
				cell := ref.rows[id][ci]
				var ok bool
				if a.Type == schema.TypeIII {
					ok = cell.Equal(lit)
				} else {
					ok = !cell.IsNull() && !lit.IsNull() && indexKey(cell) == indexKey(lit)
				}
				if ok {
					want = append(want, id)
				}
			}
			if got := tbl.AppendEqual(nil, a.Name, lit); !slices.Equal(got, want) {
				t.Fatalf("AppendEqual(%s = %#v) = %v, want %v", a.Name, lit, got, want)
			}
		}
		for _, b := range [][2]float64{{-1, 2.5}, {0, 0}, {2, 2}, {NegInf, PosInf}} {
			for _, inc := range [][2]bool{{true, true}, {false, true}, {true, false}} {
				var want []RowID
				p := NewRangePred(a.Name, b[0], b[1], inc[0], inc[1])
				for _, id := range live {
					if refMatch(s, ref.rows[id], p) {
						want = append(want, id)
					}
				}
				got := tbl.AppendRange(nil, a.Name, b[0], b[1], inc[0], inc[1])
				if a.Type == schema.TypeIII {
					slices.Sort(got) // the ordered index appends in value order
				}
				if !slices.Equal(got, want) {
					t.Fatalf("AppendRange(%s in %v %v) = %v, want %v", a.Name, b, inc, got, want)
				}
			}
		}
	}

	// IntersectMatch: an equality on a hashed column from its posting,
	// residuals read from the cells, over ids that include dead slots.
	ids := make([]RowID, len(ref.rows))
	for i := range ids {
		ids[i] = RowID(i)
	}
	for _, lit := range columnCells {
		eqs := []Pred{NewEqualPred("doors", lit)}
		preds := []Pred{
			NewAnyPred([]Pred{NewRangePred("price", -1, 2.5, true, false), NewEqualPred("year", lit)}),
			NewEqualPred("make", String("toyota")).Negated(),
		}
		var want []RowID
		for _, id := range live {
			row := ref.rows[id]
			if row[colIndex(s, "doors")].IsNull() || lit.IsNull() || indexKey(row[colIndex(s, "doors")]) != indexKey(lit) {
				continue
			}
			if refMatch(s, row, preds[0]) && refMatch(s, row, preds[1]) {
				want = append(want, id)
			}
		}
		var got []RowID
		tbl.View(func(v View) { got = v.IntersectMatch(slices.Clone(ids), eqs, preds, 0) })
		if !slices.Equal(got, want) {
			t.Fatalf("IntersectMatch(doors = %#v) = %v, want %v", lit, got, want)
		}
	}
}

// TestRowsReadWhileInsertsGrowStorage reads Rows taken in a view, and
// so after it closes, while another goroutine inserts across several
// new row groups and adds new values to every column's dictionary, and
// deletes. Run under -race: a Row must read only cells and dictionary
// entries no later write touches.
func TestRowsReadWhileInsertsGrowStorage(t *testing.T) {
	tbl, err := NewTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	ad := func(i int) map[string]Value {
		m := map[string]Value{
			"make": String(fmt.Sprintf("make%d", i)), "model": String("accord"),
			"year": Number(float64(2000 + i%20)), "price": Number(float64(i)),
		}
		if i%3 == 0 {
			m["mileage"] = String(fmt.Sprintf("about %d", i)) // a Type III exception
		}
		return m
	}
	const first = 50
	for i := 0; i < first; i++ {
		if _, err := tbl.Insert(ad(i)); err != nil {
			t.Fatal(err)
		}
	}
	var rows []Row
	tbl.View(func(v View) {
		for id := RowID(0); id < first; id++ {
			rows = append(rows, v.Row(id))
		}
	})
	check := func(row Row, i int) error {
		want := ad(i)
		for col, v := range row.All() {
			if w := want[col]; !sameCell(v, w) {
				return fmt.Errorf("row %d reads %s = %#v, want %#v", i, col, v, w)
			}
		}
		if got := row.Value("make").Str(); got != fmt.Sprintf("make%d", i) {
			return fmt.Errorf("row %d reads make %q", i, got)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(1)
	go func() { // the writer: three new row groups of new values
		defer wg.Done()
		for i := first; i < first+3*groupRows; i++ {
			if _, err := tbl.Insert(ad(i)); err != nil {
				errs <- err
				return
			}
			if i%7 == 0 {
				if err := tbl.Delete(RowID(i - first)); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) { // readers: the held Rows, and fresh ones taken mid-write
			defer wg.Done()
			for pass := 0; pass < 20; pass++ {
				for i, row := range rows {
					if err := check(row, i); err != nil {
						errs <- err
						return
					}
				}
				var fresh []Row
				var ids []RowID
				tbl.View(func(v View) {
					ids = v.AppendLiveIDs(nil)
					for _, id := range ids {
						fresh = append(fresh, v.Row(id))
					}
				})
				for j, row := range fresh {
					if err := check(row, int(ids[j])); err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
