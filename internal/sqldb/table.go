package sqldb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/schema"
)

// Record is one stored ad: a row id plus one Value per column in the
// table's declaration order.
type Record struct {
	ID     RowID
	Values []Value
}

// Table is a single relation with its indexes. The index layout
// follows Sec. 4.3: Type I attributes get the primary (hash) index,
// Type II attributes get secondary hash indexes, and Type III
// attributes get ordered indexes. These are exactly the access paths
// the generated SQL drives; there is no substring index (doc.go).
//
// # Mutability and concurrency
//
// A Table is safe for concurrent use: every exported method acquires
// the table's RWMutex, readers sharing the lock and Insert/Delete
// taking it exclusively. A mutation is atomic — the row and all of its
// index postings appear (or disappear) together — so readers never see
// a half-indexed row. Deletes are tombstoned: the RowID slot is
// retired, never reused, and the dead row's postings are removed from
// every index in place, preserving the ascending-RowID ordering of
// the hash posting lists. Multi-call read sequences (a query
// that looks up ids and then fetches records) are NOT a snapshot:
// a concurrent writer may add or remove rows between calls, and
// readers observe each mutation atomically but immediately. Version
// increments on every successful mutation, giving caches a cheap
// staleness check.
type Table struct {
	mu      sync.RWMutex
	name    string         // immutable after NewTable
	schema  *schema.Schema // immutable after NewTable
	colIdx  map[string]int // immutable after NewTable
	rows    []Record       // cqads:guarded-by mu
	dead    []bool         // cqads:guarded-by mu (tombstones, parallel to rows)
	live    int            // cqads:guarded-by mu (len(rows) minus tombstones)
	version atomic.Uint64
	hash    map[string]*hashIndex    // cqads:guarded-by mu (Type I + Type II columns)
	ordered map[string]*orderedIndex // cqads:guarded-by mu (Type III columns)

	// recMu guards the lazily cached rendered record maps handed out by
	// RecordMap; recVer is the table version the cache was built
	// against. Entries are cloned on every hit, so callers may mutate
	// what they receive.
	recMu  sync.RWMutex
	recs   map[RowID]map[string]Value // cqads:guarded-by recMu
	recVer uint64                     // cqads:guarded-by recMu
}

// NewTable creates an empty table for the given schema.
func NewTable(s *schema.Schema) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sqldb: %w", err)
	}
	t := &Table{
		name:   s.Table,
		schema: s,
		colIdx: make(map[string]int, len(s.Attrs)),
	}
	for i, a := range s.Attrs {
		t.colIdx[a.Name] = i
	}
	t.resetIndexes()
	return t, nil
}

// resetIndexes gives every column an empty index: a hash index on
// Type I and II columns, an ordered index on Type III columns.
//
// cqads:requires-lock mu
func (t *Table) resetIndexes() {
	t.hash = make(map[string]*hashIndex)
	t.ordered = make(map[string]*orderedIndex)
	for _, a := range t.schema.Attrs {
		if a.Type == schema.TypeIII {
			t.ordered[a.Name] = &orderedIndex{}
		} else {
			t.hash[a.Name] = newHashIndex()
		}
	}
}

// indexLocked posts row id's values to every index.
//
// cqads:requires-lock mu
func (t *Table) indexLocked(id RowID, row []Value) {
	for col, ix := range t.hash {
		ix.insert(row[t.colIdx[col]], id)
	}
	for col, ix := range t.ordered {
		ix.insert(row[t.colIdx[col]], id)
	}
}

// unindexLocked removes row id's values from every index.
//
// cqads:requires-lock mu
func (t *Table) unindexLocked(id RowID, row []Value) {
	for col, ix := range t.hash {
		ix.remove(row[t.colIdx[col]], id)
	}
	for col, ix := range t.ordered {
		ix.remove(row[t.colIdx[col]], id)
	}
}

// Name returns the relation name.
func (t *Table) Name() string { return t.name }

// Schema returns the table's schema.
func (t *Table) Schema() *schema.Schema { return t.schema }

// Len returns the number of live (non-deleted) records.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Slots returns the number of allocated row slots, live or tombstoned.
// RowIDs are always < Slots(); deleted slots are never reused.
func (t *Table) Slots() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// aliveLocked reports whether id names a live (inserted, not
// deleted) row; the caller holds t.mu.
//
// cqads:requires-lock mu
func (t *Table) aliveLocked(id RowID) bool {
	return id >= 0 && int(id) < len(t.rows) && !t.dead[id]
}

// Version returns a counter that increments on every successful
// Insert or Delete. Derived structures (dedup representatives,
// memoized scans) record the version they were computed at and rebuild
// when it moves.
func (t *Table) Version() uint64 { return t.version.Load() }

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// Insert appends a record built from the column→value map and returns
// its RowID. Missing columns store NULL; unknown columns error. The
// row and all its index postings become visible atomically.
func (t *Table) Insert(values map[string]Value) (RowID, error) {
	row := make([]Value, len(t.schema.Attrs))
	for col, v := range values {
		i, ok := t.colIdx[col]
		if !ok {
			return 0, fmt.Errorf("sqldb: table %s has no column %q", t.name, col)
		}
		row[i] = v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := RowID(len(t.rows))
	t.rows = append(t.rows, Record{ID: id, Values: row})
	t.dead = append(t.dead, false)
	t.live++
	t.indexLocked(id, row)
	t.version.Add(1)
	return id, nil
}

// InsertAt inserts a record at a caller-chosen RowID at or beyond the
// current slot count — the hash-partitioned ingest path, where a
// front tier assigns globally unique ids and each partition stores
// only the ids hashing into its slice. Slots between the current
// count and id are allocated as never-live tombstones (they belong to
// other partitions and stay permanently empty here), so ExportState/
// RestoreState and WAL replay see them exactly like retired rows.
// Inserting below the current slot count is an error: the slot is
// already owned, live or retired, and reusing it would violate the
// never-reuse contract.
func (t *Table) InsertAt(id RowID, values map[string]Value) error {
	row := make([]Value, len(t.schema.Attrs))
	for col, v := range values {
		i, ok := t.colIdx[col]
		if !ok {
			return fmt.Errorf("sqldb: table %s has no column %q", t.name, col)
		}
		row[i] = v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.rows) {
		return fmt.Errorf("sqldb: table %s: slot %d is already allocated (%d slots); ids never regress", t.name, id, len(t.rows))
	}
	for RowID(len(t.rows)) < id {
		hole := RowID(len(t.rows))
		t.rows = append(t.rows, Record{ID: hole})
		t.dead = append(t.dead, true)
	}
	t.rows = append(t.rows, Record{ID: id, Values: row})
	t.dead = append(t.dead, false)
	t.live++
	t.indexLocked(id, row)
	t.version.Add(1)
	return nil
}

// Delete tombstones the row and removes its postings from every
// index, preserving each posting list's ascending-RowID order. The
// RowID slot is retired and never reused. Deleting an unknown or
// already-deleted row is an error.
func (t *Table) Delete(id RowID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || int(id) >= len(t.rows) {
		return fmt.Errorf("sqldb: table %s has no row %d", t.name, id)
	}
	if t.dead[id] {
		return fmt.Errorf("sqldb: table %s row %d is already deleted", t.name, id)
	}
	t.unindexLocked(id, t.rows[id].Values)
	t.dead[id] = true
	t.live--
	t.version.Add(1)
	return nil
}

// Get returns the record with the given id. Deleted rows report false.
func (t *Table) Get(id RowID) (Record, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.aliveLocked(id) {
		return Record{}, false
	}
	return t.rows[id], true
}

// Value returns record id's value in the named column. Deleted rows
// read as NULL.
func (t *Table) Value(id RowID, col string) Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.valueLocked(id, col)
}

// valueLocked is Value with the caller holding t.mu.
//
// cqads:requires-lock mu
func (t *Table) valueLocked(id RowID, col string) Value {
	i, ok := t.colIdx[col]
	if !ok || !t.aliveLocked(id) {
		return Null
	}
	return t.rows[id].Values[i]
}

// AllRowIDs returns every live row id in ascending order.
func (t *Table) AllRowIDs() []RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.appendLiveLocked(make([]RowID, 0, t.live))
}

// AppendLiveIDs appends every live row id to dst in ascending order
// and returns the extended slice — AllRowIDs into a caller-owned
// buffer.
func (t *Table) AppendLiveIDs(dst []RowID) []RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.appendLiveLocked(dst)
}

// AppendLiveExcept appends to dst, in ascending order, every live row
// id that is not in the ascending set except, and returns the extended
// slice: the complement of a set over the live rows, in one walk of
// the slots with no copy of the live ids.
func (t *Table) AppendLiveExcept(dst, except []RowID) []RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	j := 0
	for i := range t.rows {
		id := RowID(i)
		for j < len(except) && except[j] < id {
			j++
		}
		if t.dead[i] || j < len(except) && except[j] == id {
			continue
		}
		dst = append(dst, id)
	}
	return dst
}

// appendLiveLocked is AppendLiveIDs with the caller holding t.mu.
//
// cqads:requires-lock mu
func (t *Table) appendLiveLocked(dst []RowID) []RowID {
	for i := range t.rows {
		if !t.dead[i] {
			dst = append(dst, RowID(i))
		}
	}
	return dst
}

// AppendEqual appends the rows whose col equals v to dst, in
// ascending RowID order, and returns the extended slice. Type I and II
// columns answer from their hash index. A Type III column answers a
// number from its ordered index: entries sort by (value, RowID), so
// one value's run is already in RowID order, -0 and 0 share it and NaN
// has none, exactly as Value.Equal compares a number. A string literal
// on a Type III column is scanned with Equal, because Equal compares
// two strings by text ('2.0' is not '2') where the index would not.
// Postings are copied under the read lock: Delete edits them in place,
// so no index-owned slice is ever read outside t.mu.
func (t *Table) AppendEqual(dst []RowID, col string, v Value) []RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if ix, ok := t.hash[col]; ok {
		// Postings are appended in ascending RowID order and deletes
		// remove in place, so the list is already sorted — no re-sort.
		return append(dst, ix.lookup(v)...)
	}
	if ix, ok := t.ordered[col]; ok && v.IsNumber() {
		return ix.appendRange(dst, v.n, v.n, true, true)
	}
	i, ok := t.colIdx[col]
	if !ok {
		return dst
	}
	for id := range t.rows {
		if !t.dead[id] && t.rows[id].Values[i].Equal(v) {
			dst = append(dst, RowID(id))
		}
	}
	return dst
}

// AppendRange appends the rows whose numeric col lies within the
// bounds to dst and returns the extended slice. A Type III column
// appends in VALUE order (the ordered index's native order), not RowID
// order: the streaming executor re-sorts only the rows surviving its
// residual filters, and tally-style consumers need no order at all.
// Any other column is scanned in RowID order. Like AppendEqual, it
// copies under the read lock. Use math.Inf for open ends.
func (t *Table) AppendRange(dst []RowID, col string, lo, hi float64, incLo, incHi bool) []RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if ix, ok := t.ordered[col]; ok {
		return ix.appendRange(dst, lo, hi, incLo, incHi)
	}
	i, ok := t.colIdx[col]
	if !ok {
		return dst
	}
	for id := range t.rows {
		if t.dead[id] {
			continue
		}
		n, isNum := t.rows[id].Values[i].tryNum()
		if !isNum {
			continue
		}
		okLo := n > lo || (incLo && n == lo)
		okHi := n < hi || (incHi && n == hi)
		if okLo && okHi {
			dst = append(dst, RowID(id))
		}
	}
	return dst
}

// SortByColumn orders ids by the numeric column col, ascending or
// descending, with RowID as a deterministic tie-breaker. It sorts in
// place and returns ids for chaining.
func (t *Table) SortByColumn(ids []RowID, col string, descending bool) []RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.colIdx[col]
	if !ok {
		return ids
	}
	sort.SliceStable(ids, func(a, b int) bool {
		va := t.rows[ids[a]].Values[i]
		vb := t.rows[ids[b]].Values[i]
		c := va.Compare(vb)
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
// RowID), computed in one pass under one read lock with no sort:
// the superlative of Sec. 4.3, evaluated last over the rows the other
// criteria retrieve.
func (t *Table) AppendExtremeRun(dst, ids []RowID, col string, desc bool, limit int) ([]RowID, float64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.colIdx[col]
	if !ok {
		return dst, 0, false
	}
	base := len(dst)
	var extreme float64
	found := false
	for _, id := range ids {
		if !t.aliveLocked(id) {
			continue
		}
		n, isNum := t.rows[id].Values[i].tryNum()
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
	return dst, extreme, found
}

// ExportState returns a point-in-time copy of the table's contents
// for persistence: the total number of allocated row slots (live plus
// tombstoned — the next Insert is assigned RowID slots) and the live
// records in ascending RowID order. The returned records own their
// Values slices; mutating them does not affect the table. Paired with
// RestoreState, it is the snapshot hook of internal/persist.
func (t *Table) ExportState() (slots int, rows []Record) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows = make([]Record, 0, t.live)
	for i := range t.rows {
		if t.dead[i] {
			continue
		}
		vals := make([]Value, len(t.rows[i].Values))
		copy(vals, t.rows[i].Values)
		rows = append(rows, Record{ID: RowID(i), Values: vals})
	}
	return len(t.rows), rows
}

// RestoreState replaces the table's contents with a previously
// exported state: slots total row slots of which rows (strictly
// ascending RowIDs, one Value per schema attribute) are live and the
// rest are tombstones. Every index is rebuilt from scratch, preserving
// the ascending-RowID posting order Insert establishes, and the next
// Insert is assigned RowID slots — so RowIDs retired before the export
// stay retired after recovery. The table version moves, invalidating
// derived caches.
func (t *Table) RestoreState(slots int, rows []Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	prev := RowID(-1)
	for _, r := range rows {
		if r.ID <= prev || int(r.ID) >= slots {
			return fmt.Errorf("sqldb: table %s: restore row id %d out of order or beyond %d slots", t.name, r.ID, slots)
		}
		if len(r.Values) != len(t.schema.Attrs) {
			return fmt.Errorf("sqldb: table %s: restore row %d has %d values, schema has %d attributes", t.name, r.ID, len(r.Values), len(t.schema.Attrs))
		}
		prev = r.ID
	}
	newRows := make([]Record, slots)
	dead := make([]bool, slots)
	for i := range dead {
		dead[i] = true
	}
	t.resetIndexes()
	for _, r := range rows {
		vals := make([]Value, len(r.Values))
		copy(vals, r.Values)
		newRows[r.ID] = Record{ID: r.ID, Values: vals}
		dead[r.ID] = false
		t.indexLocked(r.ID, vals)
	}
	t.rows = newRows
	t.dead = dead
	t.live = len(rows)
	t.version.Add(1)
	return nil
}

// RecordMap renders record id as a column→Value map (for display and
// for rankers that want named access). Deleted rows return nil. The
// returned map is the caller's to mutate; read-heavy paths should
// prefer RecordView, which amortizes the rendering.
func (t *Table) RecordMap(id RowID) map[string]Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.aliveLocked(id) {
		return nil
	}
	rec := t.rows[id]
	out := make(map[string]Value, len(t.schema.Attrs))
	for col, i := range t.colIdx {
		out[col] = rec.Values[i]
	}
	return out
}

// RecordView is RecordMap without the defensive copy: the returned
// map is shared — memoized per table version — and MUST be treated as
// read-only by every caller. Answer assembly hands out the same top
// rows over and over, so serving one rendered map per (row, version)
// turns the per-answer makemap + per-key hashing into a cache probe.
// Concurrent readers are safe; a table mutation bumps the version and
// the next call rebuilds against the new rows.
func (t *Table) RecordView(id RowID) map[string]Value {
	ver := t.version.Load()
	t.recMu.RLock()
	var cached map[string]Value
	ok := false
	if t.recVer == ver {
		cached, ok = t.recs[id]
	}
	t.recMu.RUnlock()
	if ok {
		return cached
	}

	out := t.RecordMap(id)
	// Version bumps happen under the write lock RecordMap just
	// released, so re-reading it here can only observe a mutation that
	// happened after the rows were copied — in which case the entry is
	// dropped rather than cached stale.
	ver2 := t.version.Load()
	if ver2 != ver {
		return out
	}
	t.recMu.Lock()
	if t.recVer != ver {
		t.recs = make(map[RowID]map[string]Value)
		t.recVer = ver
	}
	if prev, exists := t.recs[id]; exists {
		out = prev // keep one canonical map per row
	} else {
		t.recs[id] = out
	}
	t.recMu.Unlock()
	return out
}
