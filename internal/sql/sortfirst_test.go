package sql

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sqldb"
)

// TestSortFirstIsSortThenTrim holds sortFirst to sorting the whole
// slice and keeping its first limit ids, for shuffled, ascending and
// descending ids with repeats and every limit around the length.
func TestSortFirstIsSortThenTrim(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 70; n++ {
		for _, order := range []string{"shuffled", "ascending", "descending"} {
			ids := make([]sqldb.RowID, n)
			for i := range ids {
				ids[i] = sqldb.RowID(rng.Intn(2*n + 1))
			}
			switch order {
			case "ascending":
				slices.Sort(ids)
			case "descending":
				slices.Sort(ids)
				slices.Reverse(ids)
			}
			for _, limit := range []int{0, 1, 2, 5, 30, n - 1, n, n + 1} {
				want := trim(slices.Sorted(slices.Values(ids)), limit)
				if got := sortFirst(slices.Clone(ids), limit); !slices.Equal(got, want) {
					t.Fatalf("sortFirst(%v, %d) = %v, want %v", ids, limit, got, want)
				}
			}
		}
	}
}
