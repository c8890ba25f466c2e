package sqldb

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/schema"
)

// referenceExtremeRun is the superlative evaluation AppendExtremeRun
// replaces: sort the whole set by the column (SortByColumn), skip the
// prefix without a numeric value, and take the run equal to the first
// numeric value, stopping at limit (0 = uncapped).
func referenceExtremeRun(tbl *Table, ids []RowID, col string, desc bool, limit int) ([]RowID, float64, bool) {
	sorted := tbl.SortByColumn(slices.Clone(ids), col, desc)
	start := 0
	for start < len(sorted) {
		if _, ok := tbl.Value(sorted[start], col).tryNum(); ok {
			break
		}
		start++
	}
	if start == len(sorted) {
		return nil, 0, false
	}
	extreme, _ := tbl.Value(sorted[start], col).tryNum()
	var run []RowID
	for _, id := range sorted[start:] {
		n, ok := tbl.Value(id, col).tryNum()
		if !ok || n != extreme {
			break
		}
		run = append(run, id)
		if len(run) == limit {
			break
		}
	}
	return run, extreme, true
}

// extremeCell decodes one byte into a price cell drawn from the mix a
// superlative column can hold: NULL, numbers (with duplicates, ±0 and
// ±Inf), numeric strings ("-Infinity" among them) and non-numeric
// strings. NaN is left out: it has no place in SortByColumn's order,
// so the reference is undefined for it (AppendExtremeRun skips it;
// see TestAppendExtremeRunSkipsNaN).
func extremeCell(b byte) Value {
	small := float64(b>>3) - 8 // -8..23: dense duplicates
	switch b & 7 {
	case 0:
		return Null
	case 1, 2:
		return Number(small)
	case 3:
		switch b >> 6 {
		case 0:
			return Number(math.Copysign(0, -1))
		case 1:
			return Number(0)
		case 2:
			return Number(math.Inf(1))
		default:
			return Number(math.Inf(-1))
		}
	case 4:
		return String(strconv.FormatFloat(small, 'f', -1, 64))
	case 5:
		if b>>6 == 0 {
			return String("-0")
		}
		return String(strconv.FormatFloat(small/4, 'f', -1, 64))
	case 6:
		return String([]string{"cheap", "N/A", "-Infinity", "zero"}[b>>6])
	default:
		return Number(small * 1000)
	}
}

// extremeTable fills a cars table with one row per cell byte, then
// tombstones every row whose dead byte is odd. It returns the table
// and its live ids.
func extremeTable(t testing.TB, cells, dead []byte) (*Table, []RowID) {
	tbl, err := NewTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range cells {
		if _, err := tbl.Insert(map[string]Value{"make": String("honda"), "price": extremeCell(b)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range dead {
		if i < len(cells) && d&1 == 1 {
			if err := tbl.Delete(RowID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tbl, tbl.AllRowIDs()
}

// checkExtremeRun compares AppendExtremeRun with the reference for
// both directions and caps 0, 1 and 30, over ids and over a subset
// chosen by mask. The extreme is compared bit for bit: a scatter part
// encodes it, so −0 and +0 are different answers.
func checkExtremeRun(t *testing.T, tbl *Table, ids []RowID, mask []byte) {
	t.Helper()
	var subset []RowID
	for i, id := range ids {
		if len(mask) == 0 || mask[i%len(mask)]&1 == 0 {
			subset = append(subset, id)
		}
	}
	for _, set := range [][]RowID{ids, subset} {
		for _, desc := range []bool{false, true} {
			for _, limit := range []int{0, 1, 30} {
				want, wantX, wantOK := referenceExtremeRun(tbl, set, "price", desc, limit)
				prefix := []RowID{-7}
				got, gotX, gotOK := tbl.AppendExtremeRun(slices.Clone(prefix), set, "price", desc, limit)
				if !slices.Equal(got[:1], prefix) {
					t.Fatalf("desc=%v limit=%d: prefix of dst clobbered: %v", desc, limit, got)
				}
				got = got[1:]
				if gotOK != wantOK || math.Float64bits(gotX) != math.Float64bits(wantX) || !slices.Equal(got, want) {
					t.Fatalf("desc=%v limit=%d over %v:\n got run %v extreme %v (bits %x) ok %v\nwant run %v extreme %v (bits %x) ok %v",
						desc, limit, set, got, gotX, math.Float64bits(gotX), gotOK,
						want, wantX, math.Float64bits(wantX), wantOK)
				}
				inPlace := slices.Clone(set)
				if got, _, _ := tbl.AppendExtremeRun(inPlace[:0], inPlace, "price", desc, limit); !slices.Equal(got, want) {
					t.Fatalf("desc=%v limit=%d over %v: compacted in place to %v, want %v", desc, limit, set, got, want)
				}
			}
		}
	}
}

// TestAppendExtremeRunMatchesSort holds the one-pass extreme run to
// SortByColumn plus the prefix-skip/run loop it replaced, over random
// columns mixing NULLs, numbers, numeric and non-numeric strings, ±0,
// duplicates and tombstoned rows.
func TestAppendExtremeRunMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(80)
		cells, dead, mask := make([]byte, n), make([]byte, n), make([]byte, 1+rng.Intn(5))
		rng.Read(cells)
		rng.Read(mask)
		if trial%2 == 1 {
			rng.Read(dead)
		}
		tbl, ids := extremeTable(t, cells, dead)
		checkExtremeRun(t, tbl, ids, mask)
	}
}

// TestAppendExtremeRunIgnoresDeletedIDs: an id deleted after the
// match ran reads as NULL, so it never joins the run, wherever it
// would have sorted.
func TestAppendExtremeRunIgnoresDeletedIDs(t *testing.T) {
	tbl, _ := extremeTable(t, []byte{1 | 2<<3, 1 | 2<<3, 1 | 9<<3, 1 | 2<<3}, nil)
	all := tbl.AllRowIDs()
	if err := tbl.Delete(1); err != nil {
		t.Fatal(err)
	}
	got, x, ok := tbl.AppendExtremeRun(nil, all, "price", false, 0)
	if !ok || x != -6 || !slices.Equal(got, []RowID{0, 3}) {
		t.Fatalf("run %v extreme %v ok %v, want [0 3] -6 true", got, x, ok)
	}
}

// TestAppendExtremeRunSkipsNaN: NaN is unordered, so it can neither be
// the extreme nor join a run; an unknown column yields no run.
func TestAppendExtremeRunSkipsNaN(t *testing.T) {
	tbl, err := NewTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Value{Number(math.NaN()), Number(5), String("nan"), Number(5), Number(7)} {
		if _, err := tbl.Insert(map[string]Value{"price": v}); err != nil {
			t.Fatal(err)
		}
	}
	ids := tbl.AllRowIDs()
	for _, tc := range []struct {
		desc bool
		want []RowID
		x    float64
	}{{false, []RowID{1, 3}, 5}, {true, []RowID{4}, 7}} {
		got, x, ok := tbl.AppendExtremeRun(nil, ids, "price", tc.desc, 0)
		if !ok || x != tc.x || !slices.Equal(got, tc.want) {
			t.Errorf("desc=%v: run %v extreme %v ok %v, want %v %v true", tc.desc, got, x, ok, tc.want, tc.x)
		}
	}
	if got, _, ok := tbl.AppendExtremeRun(nil, ids, "warp", false, 0); ok || len(got) != 0 {
		t.Errorf("unknown column: run %v ok %v", got, ok)
	}
}

// FuzzExtremeRun is TestAppendExtremeRunMatchesSort with fuzzed
// columns: cells picks each row's price, dead tombstones rows, mask
// picks the subset the second comparison runs over.
func FuzzExtremeRun(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{}, []byte{0})
	f.Add([]byte{3, 3 | 1<<6, 3, 3 | 1<<6}, []byte{1, 0}, []byte{0, 1})
	f.Add([]byte{1 | 2<<3, 4 | 2<<3, 1 | 2<<3, 6, 0, 7 | 31<<3}, []byte{0, 0, 1}, []byte{1, 0, 0})
	f.Add([]byte{3 | 2<<6, 3 | 3<<6, 5, 5 | 1<<6, 0}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, cells, dead, mask []byte) {
		if len(cells) > 200 {
			cells = cells[:200]
		}
		tbl, ids := extremeTable(t, cells, dead)
		checkExtremeRun(t, tbl, ids, mask)
	})
}
