package sqldb

import "slices"

// MatchRow reports whether live row id satisfies p. Dead or
// out-of-range ids never match (not even negated predicates: the
// complement universe is the live row set).
func (t *Table) MatchRow(id RowID, p Pred) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.aliveLocked(id) {
		return false
	}
	return t.matchLocked(id, &p)
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
