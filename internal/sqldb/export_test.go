package sqldb

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
