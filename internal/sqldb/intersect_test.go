package sqldb

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/schema"
	"repro/internal/work"
)

// TestGallop holds the galloping search to a plain binary search: for
// every posting of up to 40 ascending ids and every target around
// them, gallop returns the first index whose entry is not below the
// target.
func TestGallop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 40; n++ {
		p := make([]RowID, 0, n)
		next := RowID(rng.Intn(3))
		for range n {
			p = append(p, next)
			next += RowID(1 + rng.Intn(4))
		}
		for id := RowID(-1); id <= next+1; id++ {
			want := sort.Search(len(p), func(i int) bool { return p[i] >= id })
			if got := gallop(p, id); got != want {
				t.Fatalf("gallop(%v, %d) = %d, want %d", p, id, got, want)
			}
		}
	}
}

// TestIntersectMatchReadsNoRow: an equality on a hashed column is
// answered from its posting. Each id tested against a posting is one
// sorted access and no cell is read, and an exhausted posting ends the
// filter.
func TestIntersectMatchReadsNoRow(t *testing.T) {
	tbl := carsTable(t)
	live := tbl.AllRowIDs()
	count := func(eqs, preds []Pred) (kept []RowID, c work.Totals) {
		var w work.Counts
		tbl.View(func(v View) { kept = v.Counting(&w).IntersectMatch(slices.Clone(live), eqs, preds, 0) })
		var s work.Sink
		s.Flush(&w)
		return kept, s.Read()
	}
	honda := NewEqualPred("make", String("honda"))
	kept, c := count([]Pred{honda}, nil)
	if want := tbl.LookupEqual("make", String("honda")); !slices.Equal(kept, want) {
		t.Fatalf("IntersectMatch(make = honda) = %v, want %v", kept, want)
	}
	if c.Cells != 0 || c.Postings == 0 || c.Postings > int64(len(live)) {
		t.Errorf("make = honda over %d live ids: %d sorted accesses and %d cells, want 1..%d and none",
			len(live), c.Postings, c.Cells, len(live))
	}
	// The honda posting ends before the last live id, so the filter
	// stops there: fewer probes than ids.
	last := tbl.LookupEqual("make", String("honda"))
	if last[len(last)-1] < live[len(live)-1] && c.Postings >= int64(len(live)) {
		t.Errorf("the filter did not stop at the end of the posting: %d probes over %d ids", c.Postings, len(live))
	}
}

// intersectCells are the Type II door cells FuzzPostingIntersectMatchesResidual
// inserts: numbers and numeric strings, of which '2', '2.0' and 2 share
// a hash key and 0 and -0 do not, a NULL, and a plain string.
var intersectCells = []Value{Number(2), String("2"), String("2.0"), Number(0),
	Number(math.Copysign(0, -1)), String("-0"), Null, String("2 door")}

// intersectLits are the literals its equalities compare with: every
// cell above, a numeric spelling no cell has, and two makes.
var intersectLits = []Value{Number(2), String("2"), String("2.0"), Number(0),
	Number(math.Copysign(0, -1)), String("-0"), Null, String("2 door"), String("2e0"),
	String("honda"), String("ford")}

// FuzzPostingIntersectMatchesResidual holds View.IntersectMatch, which
// searches the hash posting of each equality, to FilterMatch with the
// same equalities as residuals (NewEqualPred, which reads the row),
// under fuzzed inserts and deletes, any driving id set that ascends
// and any LIMIT. Each op byte inserts a row when its high bit is clear
// (make, color and doors from its low bits, year = the byte) and
// deletes a live row when it is set. Each query byte adds one
// equality: its column (make, color or doors) and its literal. drive
// picks the driving ids: every slot (deleted ones too), the live rows,
// or the honda posting; limit is any LIMIT, 0 for none, and an odd
// one adds a Type III range residual.
func FuzzPostingIntersectMatchesResidual(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x83, 12, 13}, []byte{0x10, 0x21}, uint8(0), uint8(0))
	f.Add([]byte{4, 12, 20, 28, 36, 44, 52, 60, 0x80, 0x81}, []byte{0x22, 0x23, 0x11}, uint8(1), uint8(2))
	f.Add([]byte{1, 5, 9, 13, 17, 21, 25, 29, 0x85}, []byte{0x29, 0x1a, 0x00}, uint8(2), uint8(3))
	f.Add([]byte{2, 6, 10, 14, 0x81, 18, 22, 26, 30}, []byte{0x20, 0x24, 0x16}, uint8(0), uint8(1))
	rng := rand.New(rand.NewSource(3))
	for range 40 {
		ops, query := make([]byte, 80), make([]byte, 1+rng.Intn(4))
		rng.Read(ops)
		rng.Read(query)
		f.Add(ops, query, uint8(rng.Intn(3)), uint8(rng.Intn(6)))
	}
	cols := []string{"make", "color", "doors"}
	f.Fuzz(func(t *testing.T, ops, query []byte, drive, limit uint8) {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		if len(query) > 6 {
			query = query[:6]
		}
		tbl, err := NewTable(schema.Cars())
		if err != nil {
			t.Fatal(err)
		}
		var live []RowID
		for _, b := range ops {
			if b&0x80 != 0 {
				if len(live) > 0 {
					i := int(b&0x7f) % len(live)
					if err := tbl.Delete(live[i]); err != nil {
						t.Fatal(err)
					}
					live = slices.Delete(live, i, i+1)
				}
				continue
			}
			id, err := tbl.Insert(map[string]Value{
				"make":  []Value{String("honda"), String("ford")}[b&1],
				"color": []Value{String("red"), Null}[b>>1&1],
				"doors": intersectCells[b>>2&7],
				"year":  Number(float64(b)),
			})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		var eqs []Pred
		for _, q := range query {
			eqs = append(eqs, NewEqualPred(cols[int(q>>4)%len(cols)], intersectLits[int(q&0xf)%len(intersectLits)]))
		}
		var ids []RowID
		switch drive % 3 {
		case 0:
			tbl.View(func(v View) {
				for id := range v.Slots() {
					ids = append(ids, RowID(id))
				}
			})
		case 1:
			ids = slices.Clone(live)
		default:
			ids = tbl.LookupEqual("make", String("honda"))
		}
		var preds []Pred
		if limit&1 != 0 {
			preds = []Pred{NewRangePred("year", 8, 100, true, false)}
		}
		want := tbl.FilterMatch(slices.Clone(ids), append(slices.Clone(eqs), preds...), int(limit))
		var got []RowID
		tbl.View(func(v View) { got = v.IntersectMatch(slices.Clone(ids), eqs, preds, int(limit)) })
		if !slices.Equal(got, want) {
			t.Fatalf("IntersectMatch(%v, eqs %+v, limit %d) = %v, residuals keep %v", ids, eqs, limit, got, want)
		}
	})
}
