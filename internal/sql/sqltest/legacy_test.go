package sqltest

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sqldb"
)

func TestSetOperations(t *testing.T) {
	a := []sqldb.RowID{1, 3, 5, 7}
	b := []sqldb.RowID{3, 4, 5, 8}
	if got := intersectSorted(a, b); !reflect.DeepEqual(got, []sqldb.RowID{3, 5}) {
		t.Errorf("intersect = %v", got)
	}
	union := unionSorted(a, b)
	want := []sqldb.RowID{1, 3, 4, 5, 7, 8}
	if !reflect.DeepEqual(union, want) {
		t.Errorf("union = %v, want %v", union, want)
	}
	if got := intersectSorted(a, nil); len(got) != 0 {
		t.Errorf("intersect with empty = %v", got)
	}
}

func TestSetOperationsProperties(t *testing.T) {
	gen := func(seed int64) []sqldb.RowID {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		set := map[sqldb.RowID]bool{}
		for i := 0; i < n; i++ {
			set[sqldb.RowID(rng.Intn(30))] = true
		}
		out := make([]sqldb.RowID, 0, len(set))
		for id := range set {
			out = append(out, id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for seed := int64(0); seed < 50; seed++ {
		a, b := gen(seed), gen(seed+1000)
		inter := intersectSorted(a, b)
		uni := unionSorted(a, b)
		// |A| + |B| = |A∪B| + |A∩B|
		if len(a)+len(b) != len(uni)+len(inter) {
			t.Fatalf("seed %d: inclusion-exclusion violated", seed)
		}
		if !sort.SliceIsSorted(uni, func(i, j int) bool { return uni[i] < uni[j] }) {
			t.Fatalf("seed %d: union not sorted", seed)
		}
	}
}
