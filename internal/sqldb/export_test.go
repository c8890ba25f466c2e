package sqldb

import "slices"

// The executor's reads are View methods; these wrappers open a view
// per call so the tests can drive each one against a Table.

func (t *Table) AppendEqual(dst []RowID, col string, val Value) (out []RowID) {
	t.View(func(v View) { out = v.AppendEqual(dst, col, val) })
	return out
}

func (t *Table) AppendRange(dst []RowID, col string, lo, hi float64, incLo, incHi bool) (out []RowID) {
	t.View(func(v View) { out = v.AppendRange(dst, col, lo, hi, incLo, incHi) })
	return out
}

func (t *Table) AppendLiveIDs(dst []RowID) (out []RowID) {
	t.View(func(v View) { out = v.AppendLiveIDs(dst) })
	return out
}

func (t *Table) AppendLiveExcept(dst, except []RowID) (out []RowID) {
	t.View(func(v View) { out = v.AppendLiveExcept(dst, except) })
	return out
}

// FilterMatch is IntersectMatch with every predicate a residual that
// reads the row: the filter the posting intersection is held to.
func (v View) FilterMatch(ids []RowID, preds []Pred, limit int) []RowID {
	return v.IntersectMatch(ids, nil, preds, limit)
}

func (t *Table) FilterMatch(ids []RowID, preds []Pred, limit int) (out []RowID) {
	t.View(func(v View) { out = v.FilterMatch(ids, preds, limit) })
	return out
}

func (t *Table) AppendExtremeRun(dst, ids []RowID, col string, desc bool, limit int) (out []RowID, extreme float64, found bool) {
	t.View(func(v View) { out, extreme, found = v.AppendExtremeRun(dst, ids, col, desc, limit) })
	return out, extreme, found
}

// MatchRow reports whether live row id satisfies p. Dead or
// out-of-range ids never match (not even negated predicates: the
// complement universe is the live row set).
func (t *Table) MatchRow(id RowID, p Pred) (ok bool) {
	t.View(func(v View) { ok = v.alive(id) && v.match(id, &p) })
	return ok
}

// LookupEqual returns the rows whose col equals v in ascending order,
// in a fresh slice.
func (t *Table) LookupEqual(col string, v Value) []RowID {
	return t.AppendEqual(nil, col, v)
}

// LookupRange returns the rows whose numeric col lies within the
// bounds in ascending RowID order, in a fresh slice.
func (t *Table) LookupRange(col string, lo, hi float64, incLo, incHi bool) []RowID {
	ids := t.AppendRange(nil, col, lo, hi, incLo, incHi)
	slices.Sort(ids)
	return ids
}
