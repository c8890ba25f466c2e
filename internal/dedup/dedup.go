// Package dedup implements the last future-work item of Sec. 6:
// "de-duplication of data to remove similar data records from a DB".
// Sellers repost the same ad with cosmetic edits — shorthand spellings,
// slightly different prices or mileages — and duplicate answers crowd
// out distinct ones within the 30-answer cutoff.
//
// Two records are near-duplicates when every categorical value matches
// exactly or by shorthand notation (Sec. 4.2.3's rule) and every
// numeric value lies within a small fraction of the attribute's value
// range. Near-duplication is grouped transitively with a union-find,
// and the lowest RowID of each group is kept as its representative.
// The question-answering pipeline never dedups: a caller removes the
// duplicates from the table and answers over what is left, as
// experiments.DedupImpact does.
package dedup

import (
	"sort"

	"repro/internal/schema"
	"repro/internal/shorthand"
	"repro/internal/sqldb"
)

// Options tunes near-duplicate detection.
type Options struct {
	// NumericTolerance is the maximum |a-b| / Attribute_Value_Range
	// for two numeric values to be considered the same listing
	// (default 0.01, i.e. 1% of the range).
	NumericTolerance float64
}

// DefaultOptions returns the documented defaults.
func DefaultOptions() Options {
	return Options{NumericTolerance: 0.01}
}

// Result reports a de-duplication pass.
type Result struct {
	// Keep lists the representative RowIDs, ascending.
	Keep []sqldb.RowID
	// Duplicates maps each removed RowID to its representative.
	Duplicates map[sqldb.RowID]sqldb.RowID
	// Groups counts the distinct listings found.
	Groups int
}

// Dedup detects near-duplicate records among the live rows of the
// table v views. The scan is blocked on the first Type I attribute
// value so cost stays near O(n²/|blocks|) instead of O(n²). The Result
// describes the rows v sees; a table that changes afterwards needs a
// new pass.
func Dedup(v sqldb.View, opts Options) *Result {
	if opts.NumericTolerance == 0 {
		opts = DefaultOptions()
	}
	s := v.Schema()
	// RowIDs are slot indexes, not dense 0..Len-1: tombstoned tables
	// have live ids up to Slots()-1.
	live := v.AppendLiveIDs(nil)
	size := 0
	if len(live) > 0 {
		size = int(live[len(live)-1]) + 1
	}
	uf := newUnionFind(size)

	// Block by the primary identifier: records with different first
	// Type I values are never duplicates (identifier mismatch), and
	// shorthand variants of the same identifier land in one block via
	// normalization.
	blockAttr := s.AttrsOfType(schema.TypeI)[0].Name
	blocks := map[string][]sqldb.RowID{}
	for _, id := range live {
		key := shorthand.Normalize(v.Row(id).Value(blockAttr).Str())
		blocks[key] = append(blocks[key], id)
	}
	for _, ids := range blocks {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if nearDuplicate(s, v.Row(ids[i]), v.Row(ids[j]), opts) {
					uf.union(int(ids[i]), int(ids[j]))
				}
			}
		}
	}

	res := &Result{Duplicates: map[sqldb.RowID]sqldb.RowID{}}
	rep := map[int]sqldb.RowID{}
	for _, id := range live {
		root := uf.find(int(id))
		if r, ok := rep[root]; ok {
			res.Duplicates[id] = r
			continue
		}
		rep[root] = id
		res.Keep = append(res.Keep, id)
	}
	sort.Slice(res.Keep, func(i, j int) bool { return res.Keep[i] < res.Keep[j] })
	res.Groups = len(res.Keep)
	return res
}

// nearDuplicate applies the per-attribute rules.
func nearDuplicate(s *schema.Schema, a, b sqldb.Row, opts Options) bool {
	for i, attr := range s.Attrs {
		va, vb := a.At(i), b.At(i)
		if va.IsNull() != vb.IsNull() {
			return false
		}
		if va.IsNull() {
			continue
		}
		switch attr.Type {
		case schema.TypeI, schema.TypeII:
			sa, sb := va.Str(), vb.Str()
			if sa != sb && !shorthand.Match(sa, sb) {
				return false
			}
		case schema.TypeIII:
			r := attr.Range()
			if r <= 0 {
				continue
			}
			diff := va.Num() - vb.Num()
			if diff < 0 {
				diff = -diff
			}
			if diff/r > opts.NumericTolerance {
				return false
			}
		}
	}
	return true
}

// unionFind is a standard path-compressing disjoint-set forest.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
