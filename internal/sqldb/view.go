package sqldb

import (
	"sort"

	"repro/internal/schema"
	"repro/internal/work"
)

// View is a read view of one table: every read an ask makes goes
// through its methods, and all of them see one version of the table,
// because Table.View holds the read lock for as long as the view is
// open. Its methods take no lock of their own. A View is only valid
// inside the callback it was passed to; it is a value, so opening one
// allocates nothing. A view made by Counting also counts the ids its
// methods copy and the cells they read.
type View struct {
	t *Table
	w *work.Counts
}

// View calls fn with a read view of the table, holding the read lock
// until fn returns. Writers wait for fn. fn must not call a Table
// method that takes the lock (every read but Name, Schema and Version
// does): Go's RWMutex deadlocks a recursive read lock once a writer is
// waiting. This is the one place a Table is read-locked.
func (t *Table) View(fn func(View)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	fn(View{t: t})
}

// Counting returns v counting its work into w: the ids its scans copy
// (postings and live slots) and the cells its filters, extreme runs and
// column scans read.
func (v View) Counting(w *work.Counts) View {
	v.w = w
	return v
}

// Work returns the counts v adds to, nil for a view that does not
// count, so that code reading through v adds its own work there.
func (v View) Work() *work.Counts { return v.w }

// Schema returns the table's schema.
func (v View) Schema() *schema.Schema { return v.t.schema }

// Slots returns the number of allocated row slots: every RowID the
// view can yield is below it.
func (v View) Slots() int { return len(v.t.dead) }

// alive reports whether id names a live (inserted, not deleted) row.
func (v View) alive(id RowID) bool {
	return id >= 0 && int(id) < len(v.t.dead) && !v.t.dead[id]
}

// at returns the row group holding the cells of row id, which must
// have been written (a live or deleted row), and the row's offset in
// it.
func (v View) at(id RowID) (*rowGroup, int) {
	return v.t.groups[id>>groupShift], int(id) & (groupRows - 1)
}

// Row returns the view of row id. A deleted or unknown id yields the
// zero Row.
func (v View) Row(id RowID) Row {
	if !v.alive(id) {
		return Row{}
	}
	g, off := v.at(id)
	return Row{t: v.t, g: g, off: off}
}

// AppendLiveIDs appends every live row id to dst in ascending order
// and returns the extended slice.
func (v View) AppendLiveIDs(dst []RowID) []RowID {
	base := len(dst)
	for i := range v.t.dead {
		if !v.t.dead[i] {
			dst = append(dst, RowID(i))
		}
	}
	v.w.AddPostings(len(dst) - base)
	return dst
}

// AppendLiveExcept appends to dst, in ascending order, every live row
// id that is not in the ascending set except, and returns the extended
// slice: the complement of a set over the live rows, in one walk of
// the slots with no copy of the live ids.
func (v View) AppendLiveExcept(dst, except []RowID) []RowID {
	t := v.t
	base, j := len(dst), 0
	for i := range t.dead {
		id := RowID(i)
		for j < len(except) && except[j] < id {
			j++
		}
		if t.dead[i] || j < len(except) && except[j] == id {
			continue
		}
		dst = append(dst, id)
	}
	v.w.AddPostings(len(dst) - base)
	return dst
}

// AppendEqual appends the rows whose col equals val to dst, in
// ascending RowID order, and returns the extended slice. Type I and II
// columns answer from their hash index. A Type III column answers a
// number from its ordered index: entries sort by (value, RowID), so
// one value's run is already in RowID order, -0 and 0 share it and NaN
// has none, exactly as Value.Equal compares a number. A string literal
// on a Type III column is scanned with Equal, because Equal compares
// two strings by text ('2.0' is not '2') where the index would not.
// Postings are copied: Delete edits them in place, so no index-owned
// slice is ever read outside a view.
func (v View) AppendEqual(dst []RowID, col string, val Value) []RowID {
	t := v.t
	i, ok := t.colIdx[col]
	if !ok {
		return dst
	}
	if ix := t.hash[i]; ix != nil {
		// Postings are appended in ascending RowID order and deletes
		// remove in place, so the list is already sorted — no re-sort.
		posting := ix.lookup(val)
		v.w.AddPostings(len(posting))
		return append(dst, posting...)
	}
	if val.IsNumber() {
		base := len(dst)
		dst = t.ordered[i].appendRange(dst, val.n, val.n, true, true)
		v.w.AddPostings(len(dst) - base)
		return dst
	}
	c := &t.cols[i]
	reads := 0
	for id := range t.dead {
		if t.dead[id] {
			continue
		}
		reads++
		if c.cell(v.at(RowID(id))).Equal(val) {
			dst = append(dst, RowID(id))
		}
	}
	v.w.AddCells(reads)
	return dst
}

// AppendRange appends the rows whose numeric col lies within the
// bounds to dst and returns the extended slice. A Type III column
// appends in VALUE order (the ordered index's native order), not RowID
// order: the streaming executor re-sorts only the rows surviving its
// residual filters, and tally-style consumers need no order at all.
// Any other column is scanned in RowID order. Like AppendEqual, it
// copies the postings. Use math.Inf for open ends.
func (v View) AppendRange(dst []RowID, col string, lo, hi float64, incLo, incHi bool) []RowID {
	t := v.t
	i, ok := t.colIdx[col]
	if !ok {
		return dst
	}
	if ix := t.ordered[i]; ix != nil {
		base := len(dst)
		dst = ix.appendRange(dst, lo, hi, incLo, incHi)
		v.w.AddPostings(len(dst) - base)
		return dst
	}
	c := &t.cols[i]
	reads := 0
	for id := range t.dead {
		if t.dead[id] {
			continue
		}
		reads++
		n, isNum := c.num(v.at(RowID(id)))
		if !isNum {
			continue
		}
		okLo := n > lo || (incLo && n == lo)
		okHi := n < hi || (incHi && n == hi)
		if okLo && okHi {
			dst = append(dst, RowID(id))
		}
	}
	v.w.AddCells(reads)
	return dst
}

// SortByColumn orders ids by the numeric column col, ascending or
// descending, with RowID as a deterministic tie-breaker. It sorts in
// place and returns ids for chaining.
func (v View) SortByColumn(ids []RowID, col string, descending bool) []RowID {
	i, ok := v.t.colIdx[col]
	if !ok {
		return ids
	}
	cl := &v.t.cols[i]
	sort.SliceStable(ids, func(a, b int) bool {
		c := cl.cell(v.at(ids[a])).Compare(cl.cell(v.at(ids[b])))
		if c == 0 {
			return ids[a] < ids[b]
		}
		if descending {
			return c > 0
		}
		return c < 0
	})
	return ids
}

// AppendExtremeRun appends to dst, in ascending RowID order, every id
// of the ascending set ids whose numeric value in col (tryNum) equals
// the set's minimum — its maximum when desc — keeping at most limit
// ids in the run (limit <= 0 is uncapped). It also returns the extreme,
// read from the run's lowest-RowID member, and whether any row had a
// numeric value at all. NULLs, non-numeric strings, NaN and deleted
// rows never join a run. dst may be ids[:0]: the run never outgrows
// the prefix of ids already read, so it compacts in place.
//
// This is exactly the leading equal run that SortByColumn's order
// yields once its non-numeric prefix is skipped (NULLs sort first
// ascending, non-numeric strings first descending, ties break on
// RowID), computed in one pass with no sort: the superlative of
// Sec. 4.3, evaluated last over the rows the other criteria retrieve.
func (v View) AppendExtremeRun(dst, ids []RowID, col string, desc bool, limit int) ([]RowID, float64, bool) {
	i, ok := v.t.colIdx[col]
	if !ok {
		return dst, 0, false
	}
	c := &v.t.cols[i]
	base, reads := len(dst), 0
	var extreme float64
	found := false
	for _, id := range ids {
		if !v.alive(id) {
			continue
		}
		reads++
		n, isNum := c.num(v.at(id))
		if !isNum || n != n { // NaN has no place in the order
			continue
		}
		switch {
		case !found || (desc && n > extreme) || (!desc && n < extreme):
			dst = append(dst[:base], id)
			extreme, found = n, true
		case n == extreme && (limit <= 0 || len(dst)-base < limit):
			dst = append(dst, id)
		}
	}
	v.w.AddCells(reads)
	return dst, extreme, found
}
