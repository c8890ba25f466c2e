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
// attributes and the secondary indexes on Type II attributes.
type hashIndex struct {
	postings map[string][]RowID
}

func newHashIndex() *hashIndex {
	return &hashIndex{postings: make(map[string][]RowID)}
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

func (ix *hashIndex) insert(v Value, id RowID) {
	if v.IsNull() {
		return
	}
	k := indexKey(v)
	ix.postings[k] = append(ix.postings[k], id)
}

// remove deletes id from v's posting list, preserving ascending
// order. Posting lists are append-only in ascending RowID order, so a
// binary search locates the entry.
func (ix *hashIndex) remove(v Value, id RowID) {
	if v.IsNull() {
		return
	}
	k := indexKey(v)
	ids := ix.postings[k]
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i >= len(ids) || ids[i] != id {
		return
	}
	ids = append(ids[:i], ids[i+1:]...)
	if len(ids) == 0 {
		delete(ix.postings, k)
		return
	}
	ix.postings[k] = ids
}

// lookup returns the posting list for v; NULL equals no row. The
// returned slice is shared; callers must not mutate it. The key is
// built in a stack buffer, so a lookup allocates nothing.
func (ix *hashIndex) lookup(v Value) []RowID {
	if v.IsNull() {
		return nil
	}
	var buf [64]byte
	return ix.postings[string(appendIndexKey(buf[:0], v))]
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
// through the Table API. Removal rewrites the slice in place and
// preserves sortedness, so a delete never forces a re-sort.
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
		ix.entries = append(ix.entries[:at], ix.entries[at+1:]...)
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
