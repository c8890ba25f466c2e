package sqldb

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/schema"
)

func TestOrderedIndexRange(t *testing.T) {
	ix := &orderedIndex{}
	vals := []float64{5, 1, 9, 3, 7, 3}
	for i, v := range vals {
		ix.insert(Number(v), RowID(i))
	}
	ids := ix.appendRange(nil, 3, 7, true, true)
	got := map[RowID]bool{}
	for _, id := range ids {
		got[id] = true
	}
	want := map[RowID]bool{0: true, 3: true, 4: true, 5: true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("appendRange(3,7,incl) = %v, want rows %v", ids, want)
	}
	// Exclusive bounds.
	ids = ix.appendRange(nil, 3, 7, false, false)
	if len(ids) != 1 || ids[0] != 0 {
		t.Errorf("appendRange(3,7,excl) = %v, want [0]", ids)
	}
	// Open-ended.
	if n := len(ix.appendRange(nil, math.Inf(-1), math.Inf(1), true, true)); n != 6 {
		t.Errorf("full scan = %d rows, want 6", n)
	}
}

// TestOrderedIndexMatchesBruteForce: a range scan returns exactly the
// values in range, with NaN and ±Inf among the inputs (quick generates
// only finite floats, so special turns some of them into those). NaN
// lies in no range, and one NaN must not disturb the order the binary
// searches rely on.
func TestOrderedIndexMatchesBruteForce(t *testing.T) {
	f := func(vals []float64, special []uint8, lo, hi float64) bool {
		if len(vals) > 50 {
			vals = vals[:50]
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		for i := range vals {
			if i < len(special) {
				switch special[i] % 6 {
				case 0:
					vals[i] = math.NaN()
				case 1:
					vals[i] = math.Inf(1)
				case 2:
					vals[i] = math.Inf(-1)
				}
			}
		}
		ix := &orderedIndex{}
		for i, v := range vals {
			ix.insert(Number(v), RowID(i))
		}
		got := map[RowID]bool{}
		for _, id := range ix.appendRange(nil, lo, hi, true, true) {
			got[id] = true
		}
		for i, v := range vals {
			want := v >= lo && v <= hi // false for NaN
			if got[RowID(i)] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHashIndexNumericStringKeysShared(t *testing.T) {
	ix := newHashIndex()
	ix.add(ix.classOf(Number(2004)), 1)
	ix.add(ix.classOf(String("2004")), 2)
	ids := ix.lookup(Number(2004))
	if len(ids) != 2 {
		t.Errorf("numeric/string key sharing failed: %v", ids)
	}
}

// orderedCell decodes one byte (its low 7 bits) into a Type III cell:
// NULL, numbers with dense duplicates, NaN, −0, ±Inf, two spellings of
// each number as a string, numeric strings for the specials, and
// non-numeric strings.
func orderedCell(b byte) Value {
	k := float64(b>>3&15) - 4 // -4..11
	switch b & 7 {
	case 0:
		return Null
	case 1:
		return Number(k)
	case 2:
		return Number(k / 4)
	case 3:
		return String(strconv.FormatFloat(k, 'f', -1, 64))
	case 4:
		return String(strconv.FormatFloat(k, 'e', -1, 64))
	case 5:
		return Number([]float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}[b>>3&3])
	case 6:
		return String([]string{"nan", "-0", "inf", "-infinity"}[b>>3&3])
	default:
		return String([]string{"cheap", "n/a", "zero", ""}[b>>3&3])
	}
}

// checkOrderedMatchesScan holds the two Type III access paths to the
// per-row predicates: LookupRange (the ordered index) to a PredRange
// scan for every inclusivity, and AppendEqual (the ordered index for a
// number, a scan for a string) to a PredEqual scan, which compares
// with Value.Equal.
func checkOrderedMatchesScan(t *testing.T, tbl *Table, lo, hi float64) {
	t.Helper()
	for _, b := range [][2]float64{{lo, hi}, {NegInf, PosInf}, {NegInf, hi}, {lo, PosInf}} {
		for _, inc := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
			p := NewRangePred("price", b[0], b[1], inc[0], inc[1])
			var want []RowID
			for _, id := range tbl.AllRowIDs() {
				if tbl.MatchRow(id, p) {
					want = append(want, id)
				}
			}
			if got := tbl.LookupRange("price", b[0], b[1], inc[0], inc[1]); !slices.Equal(got, want) {
				t.Fatalf("LookupRange(%v, %v, %v, %v) = %v, PredRange scan = %v", b[0], b[1], inc[0], inc[1], got, want)
			}
		}
	}
	lits := []Value{String("2"), String("2.0"), String("-0"), String("nan"), String("n/a")}
	for _, v := range []float64{lo, hi, 0, math.Copysign(0, -1), 2, 0.5, math.Inf(1), math.Inf(-1), math.NaN()} {
		lits = append(lits, Number(v))
	}
	for _, lit := range lits {
		p := NewEqualPred("price", lit)
		var want []RowID
		for _, id := range tbl.AllRowIDs() {
			if tbl.MatchRow(id, p) {
				want = append(want, id)
			}
		}
		if got := tbl.AppendEqual(nil, "price", lit); !slices.Equal(got, want) {
			t.Fatalf("AppendEqual(price = %#v) = %v, PredEqual scan = %v", lit, got, want)
		}
	}
}

// FuzzOrderedIndexMatchesScan runs fuzzed inserts and deletes on a
// Type III column and then checks both of its access paths against a
// scan (checkOrderedMatchesScan). Each op byte inserts
// orderedCell(b&0x7f) when its high bit is clear, deletes a live row
// when it is set, and 0xff sorts the index so later deletes take the
// binary-search path.
func FuzzOrderedIndexMatchesScan(f *testing.F) {
	f.Add([]byte{1, 9, 17, 5, 25, 0x80, 3, 4}, 0.0, 2.0)
	f.Add([]byte{5, 13, 21, 29, 1, 9, 0xff, 0x81, 5, 0x80}, math.Inf(-1), math.Inf(1))
	f.Add([]byte{6, 14, 22, 30, 7, 15, 0, 11, 12}, math.Copysign(0, -1), 0.0)
	rng := rand.New(rand.NewSource(1))
	for range 40 {
		ops := make([]byte, 60)
		rng.Read(ops)
		f.Add(ops, float64(rng.Intn(16)-4)/2, float64(rng.Intn(16)-4))
	}
	f.Fuzz(func(t *testing.T, ops []byte, lo, hi float64) {
		if len(ops) > 200 {
			ops = ops[:200]
		}
		tbl, err := NewTable(schema.Cars())
		if err != nil {
			t.Fatal(err)
		}
		var live []RowID
		for _, b := range ops {
			switch {
			case b == 0xff:
				tbl.LookupRange("price", NegInf, PosInf, true, true)
			case b&0x80 != 0 && len(live) > 0:
				i := int(b&0x7f) % len(live)
				if err := tbl.Delete(live[i]); err != nil {
					t.Fatal(err)
				}
				live = slices.Delete(live, i, i+1)
			case b&0x80 == 0:
				id, err := tbl.Insert(map[string]Value{"make": String("honda"), "price": orderedCell(b)})
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			}
		}
		checkOrderedMatchesScan(t, tbl, lo, hi)
	})
}
