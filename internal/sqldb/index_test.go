package sqldb

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTrigrams(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"ab", []string{"ab"}},
		{"abc", []string{"abc"}},
		{"abcd", []string{"abc", "bcd"}},
		{"aaaa", []string{"aaa"}}, // dedup
	}
	for _, c := range cases {
		if got := trigrams(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("trigrams(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTrigramIndexCandidatesSuperset(t *testing.T) {
	// Property: the trigram candidates always include every row whose
	// value truly contains the substring (no false negatives).
	rng := rand.New(rand.NewSource(1))
	words := []string{"honda", "accord", "camry", "corolla", "mustang", "charger", "outback"}
	ix := newTrigramIndex()
	var stored []string
	for i := 0; i < 200; i++ {
		v := words[rng.Intn(len(words))] + words[rng.Intn(len(words))][:3]
		stored = append(stored, v)
		ix.insert(String(v), RowID(i))
	}
	for _, sub := range []string{"hon", "cord", "mus", "ack", "ndaac", "zzz"} {
		cands := map[RowID]bool{}
		for _, id := range ix.candidates(sub) {
			cands[id] = true
		}
		for i, v := range stored {
			if strings.Contains(v, sub) && !cands[RowID(i)] {
				t.Errorf("substring %q: row %d (%q) missing from candidates", sub, i, v)
			}
		}
	}
}

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

func TestOrderedIndexMatchesBruteForce(t *testing.T) {
	f := func(vals []float64, lo, hi float64) bool {
		if len(vals) > 50 {
			vals = vals[:50]
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		ix := &orderedIndex{}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true // skip degenerate inputs
			}
			ix.insert(Number(v), RowID(i))
		}
		got := map[RowID]bool{}
		for _, id := range ix.appendRange(nil, lo, hi, true, true) {
			got[id] = true
		}
		for i, v := range vals {
			want := v >= lo && v <= hi
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
	ix.insert(Number(2004), 1)
	ix.insert(String("2004"), 2)
	ids := ix.lookup(Number(2004))
	if len(ids) != 2 {
		t.Errorf("numeric/string key sharing failed: %v", ids)
	}
}

func TestSetOperations(t *testing.T) {
	a := []RowID{1, 3, 5, 7}
	b := []RowID{3, 4, 5, 8}
	if got := IntersectSorted(a, b); !reflect.DeepEqual(got, []RowID{3, 5}) {
		t.Errorf("intersect = %v", got)
	}
	union := UnionSorted(a, b)
	want := []RowID{1, 3, 4, 5, 7, 8}
	if !reflect.DeepEqual(union, want) {
		t.Errorf("union = %v, want %v", union, want)
	}
	if got := IntersectSorted(a, nil); len(got) != 0 {
		t.Errorf("intersect with empty = %v", got)
	}
}

func TestSetOperationsProperties(t *testing.T) {
	gen := func(seed int64) []RowID {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		set := map[RowID]bool{}
		for i := 0; i < n; i++ {
			set[RowID(rng.Intn(30))] = true
		}
		out := make([]RowID, 0, len(set))
		for id := range set {
			out = append(out, id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for seed := int64(0); seed < 50; seed++ {
		a, b := gen(seed), gen(seed+1000)
		inter := IntersectSorted(a, b)
		uni := UnionSorted(a, b)
		// |A| + |B| = |A∪B| + |A∩B|
		if len(a)+len(b) != len(uni)+len(inter) {
			t.Fatalf("seed %d: inclusion-exclusion violated", seed)
		}
		if !sort.SliceIsSorted(uni, func(i, j int) bool { return uni[i] < uni[j] }) {
			t.Fatalf("seed %d: union not sorted", seed)
		}
	}
}
