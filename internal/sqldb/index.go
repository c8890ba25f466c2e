package sqldb

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// RowID identifies a record within a table. RowIDs are dense and
// assigned in insertion order starting at 0.
type RowID int

// hashIndex is an equality index from value key to the posting list of
// rows holding that value. It backs both the primary index on Type I
// attributes and the secondary indexes on Type II attributes. Each
// distinct key is given a class once, when the column first stores a
// value with that key (the column's dictionary records it), so posting
// a cell is an array index and renders no key.
type hashIndex struct {
	classes  map[string]uint32 // index key → class; kept when the postings are emptied
	postings [][]RowID         // by class
}

func newHashIndex() *hashIndex {
	return &hashIndex{classes: make(map[string]uint32)}
}

// indexKey renders a value into its index key. Numbers and numeric
// strings share a key so that year=2004 matches the string "2004".
func indexKey(v Value) string {
	return string(appendIndexKey(nil, v))
}

// appendIndexKey appends v's index key to dst.
func appendIndexKey(dst []byte, v Value) []byte {
	if n, ok := v.tryNum(); ok {
		return strconv.AppendFloat(append(dst, "n:"...), n, 'f', -1, 64)
	}
	return append(append(dst, "s:"...), v.Str()...)
}

// sameNumKey reports whether numbers a and b share an index key, i.e.
// indexKey(Number(a)) == indexKey(Number(b)) without rendering either:
// equal with the same sign (the keys of -0 and 0 differ), or both NaN.
func sameNumKey(a, b float64) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return a == b && math.Signbit(a) == math.Signbit(b)
}

// classOf returns the class of v's key, giving a key not seen before
// the next class. v must not be NULL.
func (ix *hashIndex) classOf(v Value) uint32 {
	k := indexKey(v)
	c, ok := ix.classes[k]
	if !ok {
		c = uint32(len(ix.postings))
		ix.classes[k] = c
		ix.postings = append(ix.postings, nil)
	}
	return c
}

// add appends id to class c's posting list. Ids are added in ascending
// order, so the list stays sorted.
func (ix *hashIndex) add(c uint32, id RowID) {
	ix.postings[c] = append(ix.postings[c], id)
}

// remove deletes id from class c's posting list, preserving ascending
// order. Posting lists are append-only in ascending RowID order, so a
// binary search locates the entry.
func (ix *hashIndex) remove(c uint32, id RowID) {
	ids := ix.postings[c]
	i, found := slices.BinarySearch(ids, id)
	if !found {
		return
	}
	ix.postings[c] = shrink(slices.Delete(ids, i, i+1))
}

// shrink returns s, reallocated to its length once that falls below
// half its capacity (nil when empty), so a list that churn has emptied
// does not keep the memory of its peak.
func shrink[E any](s []E) []E {
	switch {
	case len(s) == 0:
		return nil
	case len(s) < cap(s)/2:
		return slices.Clone(s)
	}
	return s
}

// lookup returns the posting list for v; NULL equals no row. The
// returned slice is shared; callers must not mutate it. The key is
// built in a stack buffer, so a lookup allocates nothing.
func (ix *hashIndex) lookup(v Value) []RowID {
	if v.IsNull() {
		return nil
	}
	var buf [64]byte
	c, ok := ix.classes[string(appendIndexKey(buf[:0], v))]
	if !ok {
		return nil
	}
	return ix.postings[c]
}

// orderedIndex keeps (value, row) pairs sorted by numeric value,
// supporting range scans and min/max queries for boundaries and
// superlatives (Sec. 4.3 steps 3-4). NaN is never indexed: it lies in
// no range, and the sort and binary searches need a strict order over
// the entries. The sort is deferred to the first scan; sorting is
// synchronized so concurrent scans are safe.
// Mutual exclusion between insert/remove and scans is provided by the
// owning Table's RWMutex: mutations run under the exclusive lock, so
// the old insert-concurrent-with-scan usage error can no longer occur
// through the Table API. Removal preserves the order of the remaining
// entries, so a delete never forces a re-sort, and reallocates the
// slice once it falls below half its capacity.
type orderedIndex struct {
	entries []orderedEntry
	sorted  atomic.Bool
	sortMu  sync.Mutex
}

type orderedEntry struct {
	val float64
	id  RowID
}

func (ix *orderedIndex) insert(v Value, id RowID) {
	n, ok := v.tryNum()
	if !ok || n != n {
		return
	}
	ix.entries = append(ix.entries, orderedEntry{val: n, id: id})
	ix.sorted.Store(false)
}

// remove deletes the (value, id) entry. When the index is already
// sorted a binary search narrows the scan to the value's run and the
// in-place removal keeps it sorted; an unsorted index is scanned
// linearly (sortedness is neither required nor disturbed).
func (ix *orderedIndex) remove(v Value, id RowID) {
	n, ok := v.tryNum()
	if !ok || n != n {
		return
	}
	at := -1
	if ix.sorted.Load() {
		i := sort.Search(len(ix.entries), func(i int) bool {
			if ix.entries[i].val != n {
				return ix.entries[i].val > n
			}
			return ix.entries[i].id >= id
		})
		if i < len(ix.entries) && ix.entries[i].val == n && ix.entries[i].id == id {
			at = i
		}
	} else {
		for i := range ix.entries {
			if ix.entries[i].val == n && ix.entries[i].id == id {
				at = i
				break
			}
		}
	}
	if at >= 0 {
		ix.entries = shrink(slices.Delete(ix.entries, at, at+1))
	}
}

func (ix *orderedIndex) ensureSorted() {
	if ix.sorted.Load() {
		return
	}
	ix.sortMu.Lock()
	defer ix.sortMu.Unlock()
	if ix.sorted.Load() {
		return
	}
	sort.Slice(ix.entries, func(i, j int) bool {
		if ix.entries[i].val != ix.entries[j].val {
			return ix.entries[i].val < ix.entries[j].val
		}
		return ix.entries[i].id < ix.entries[j].id
	})
	ix.sorted.Store(true)
}

// appendRange appends the rows whose value lies in [lo,hi] with the
// given inclusivity to dst, in value order. Use math.Inf bounds for
// open ends. The caller holds the owning Table's lock, since removals
// edit entries in place.
func (ix *orderedIndex) appendRange(dst []RowID, lo, hi float64, includeLo, includeHi bool) []RowID {
	ix.ensureSorted()
	// Find first entry >= lo (or > lo when exclusive).
	start := sort.Search(len(ix.entries), func(i int) bool {
		if includeLo {
			return ix.entries[i].val >= lo
		}
		return ix.entries[i].val > lo
	})
	// Find first entry past hi so dst can be grown exactly once.
	end := start + sort.Search(len(ix.entries)-start, func(i int) bool {
		v := ix.entries[start+i].val
		if includeHi {
			return v > hi
		}
		return v >= hi
	})
	if start >= end {
		return dst
	}
	dst = slices.Grow(dst, end-start)
	for i := start; i < end; i++ {
		dst = append(dst, ix.entries[i].id)
	}
	return dst
}
