package sqldb

import (
	"fmt"
	"iter"
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
// A Table is safe for concurrent use. Insert, InsertAt, Delete and
// RestoreState take the table's RWMutex exclusively; every read runs
// inside a read view (Table.View), which holds the read lock once for
// as long as its callback runs. A mutation is atomic — the row and all
// of its index postings appear (or disappear) together — so readers
// never see a half-indexed row. Deletes are tombstoned: the RowID slot
// is retired, never reused, and the dead row's postings are removed
// from every index in place, preserving the ascending-RowID ordering
// of the hash posting lists. Every read made through one View sees one
// version of the table: no write lands between two of them. The
// single-call reads (Len, Get, Value, Row, ...) each open a view of
// their own, so two of them in a row are NOT a snapshot. Version
// increments on every successful mutation.
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
func (t *Table) Len() (n int) {
	t.View(func(View) { n = t.live })
	return n
}

// Slots returns the number of allocated row slots, live or tombstoned.
// RowIDs are always < Slots(); deleted slots are never reused.
func (t *Table) Slots() (n int) {
	t.View(func(v View) { n = v.Slots() })
	return n
}

// Version returns a counter that increments on every successful
// Insert or Delete.
func (t *Table) Version() uint64 { return t.version.Load() }

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
func (t *Table) Get(id RowID) (r Record, ok bool) {
	t.View(func(v View) {
		if ok = v.alive(id); ok {
			r = t.rows[id]
		}
	})
	return r, ok
}

// Value returns record id's value in the named column. Deleted rows
// read as NULL.
func (t *Table) Value(id RowID, col string) Value {
	return t.Row(id).Value(col)
}

// AllRowIDs returns every live row id in ascending order.
func (t *Table) AllRowIDs() (ids []RowID) {
	t.View(func(v View) { ids = v.AppendLiveIDs(make([]RowID, 0, t.live)) })
	return ids
}

// SortByColumn is View.SortByColumn in a read view of its own.
func (t *Table) SortByColumn(ids []RowID, col string, descending bool) []RowID {
	t.View(func(v View) { v.SortByColumn(ids, col, descending) })
	return ids
}

// ExportState returns a point-in-time copy of the table's contents
// for persistence: the total number of allocated row slots (live plus
// tombstoned — the next Insert is assigned RowID slots) and the live
// records in ascending RowID order. The returned records own their
// Values slices; mutating them does not affect the table. Paired with
// RestoreState, it is the snapshot hook of internal/persist.
func (t *Table) ExportState() (slots int, rows []Record) {
	t.View(func(View) {
		rows = make([]Record, 0, t.live)
		for i := range t.rows {
			if t.dead[i] {
				continue
			}
			vals := make([]Value, len(t.rows[i].Values))
			copy(vals, t.rows[i].Values)
			rows = append(rows, Record{ID: RowID(i), Values: vals})
		}
		slots = len(t.rows)
	})
	return slots, rows
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

// Row is a read-only view of one stored ad: its table and the values
// the row was inserted with. Nothing writes a row's values in place —
// Delete tombstones the slot and RestoreState installs fresh slices —
// so a Row holds them without a copy or a cache, and it still reads
// them after a later Delete. The zero Row is the view of no row: it
// has no columns, reads NULL and renders as a nil map. A Row is a
// value; taking one allocates nothing.
type Row struct {
	t    *Table
	vals []Value
}

// Row returns the view of row id, taken in a read view of its own. A
// deleted or unknown id yields the zero Row.
func (t *Table) Row(id RowID) (r Row) {
	t.View(func(v View) { r = v.Row(id) })
	return r
}

// IsZero reports whether r is the view of no row.
func (r Row) IsZero() bool { return r.t == nil }

// Len returns the number of columns, 0 for the zero Row.
func (r Row) Len() int { return len(r.vals) }

// At returns the value of column i, in schema order (0 <= i < Len).
func (r Row) At(i int) Value { return r.vals[i] }

// Value returns the value in the named column: NULL for an unknown
// column or the zero Row.
func (r Row) Value(col string) Value {
	if r.t == nil {
		return Null
	}
	if i, ok := r.t.colIdx[col]; ok {
		return r.vals[i]
	}
	return Null
}

// All yields each column name with its value, in schema order.
func (r Row) All() iter.Seq2[string, Value] {
	return func(yield func(string, Value) bool) {
		for i := range r.vals {
			if !yield(r.t.schema.Attrs[i].Name, r.vals[i]) {
				return
			}
		}
	}
}

// Record builds the row as a column→Value map the caller owns, for
// callers off the answer path (display, tools, experiments). The zero
// Row renders as nil.
func (r Row) Record() map[string]Value {
	if r.t == nil {
		return nil
	}
	out := make(map[string]Value, len(r.vals))
	for col, v := range r.All() {
		out[col] = v
	}
	return out
}
