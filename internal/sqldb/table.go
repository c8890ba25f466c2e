package sqldb

import (
	"fmt"
	"iter"
	"math"
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
// # Storage
//
// Rows are stored column-major in fixed-capacity row groups
// (column.go): a Type I or II cell is a 4-byte code into its column's
// append-only dictionary, a Type III cell the 8 bytes of its float.
// A cell is written once, by the insert that fills its slot, and never
// moved; Delete tombstones the slot and keeps its cells, and
// RestoreState installs new groups. Slots that never held a row (the
// holes InsertAt leaves) allocate no group while their whole group is
// empty.
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
	mu     sync.RWMutex
	name   string         // immutable after NewTable
	schema *schema.Schema // immutable after NewTable
	colIdx map[string]int // immutable after NewTable
	// cols is immutable after NewTable but for each column's published
	// dictionary, which only grows.
	cols          []column
	nCoded, nNums int                  // immutable after NewTable: arrays per row group
	groups        []*rowGroup          // cqads:guarded-by mu (nil: a group no row was ever written to)
	dead          []bool               // cqads:guarded-by mu (tombstones, one per slot)
	live          int                  // cqads:guarded-by mu (slots minus tombstones)
	codeOf        []map[cellKey]uint32 // cqads:guarded-by mu (per column: stored value → dictionary code)
	version       atomic.Uint64
	hash          []*hashIndex    // cqads:guarded-by mu (by column; Type I + Type II columns, nil elsewhere)
	ordered       []*orderedIndex // cqads:guarded-by mu (by column; Type III columns, nil elsewhere)
}

// NewTable creates an empty table for the given schema.
func NewTable(s *schema.Schema) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sqldb: %w", err)
	}
	t := &Table{
		name:    s.Table,
		schema:  s,
		colIdx:  make(map[string]int, len(s.Attrs)),
		cols:    make([]column, len(s.Attrs)),
		codeOf:  make([]map[cellKey]uint32, len(s.Attrs)),
		hash:    make([]*hashIndex, len(s.Attrs)),
		ordered: make([]*orderedIndex, len(s.Attrs)),
	}
	for i, a := range s.Attrs {
		t.colIdx[a.Name] = i
		c := &t.cols[i]
		c.name = a.Name
		if a.Type == schema.TypeIII {
			c.typeIII, c.slot = true, t.nNums
			t.nNums++
			t.ordered[i] = &orderedIndex{}
		} else {
			c.slot = t.nCoded
			t.nCoded++
			t.hash[i] = newHashIndex()
		}
		c.dict.Store(&[]entry{{v: Null, class: noClass}})
		t.codeOf[i] = map[cellKey]uint32{{}: 0}
	}
	return t, nil
}

// groupLocked returns the row group holding slot id, allocating it
// (and nil entries for the empty groups before it) on first use.
//
// cqads:requires-lock mu
func (t *Table) groupLocked(id RowID) *rowGroup {
	gi := int(id >> groupShift)
	for len(t.groups) <= gi {
		t.groups = append(t.groups, nil)
	}
	if t.groups[gi] == nil {
		t.groups[gi] = newRowGroup(t.nCoded, t.nNums)
	}
	return t.groups[gi]
}

// codeLocked returns v's code in column i's dictionary, publishing v
// (classified once: its numeric reading and its hash index class) the
// first time the column stores it.
//
// cqads:requires-lock mu
func (t *Table) codeLocked(i int, v Value) uint32 {
	k := keyOf(v)
	if code, ok := t.codeOf[i][k]; ok {
		return code
	}
	e := entry{v: v, class: noClass}
	e.num, e.numeric = v.tryNum()
	if ix := t.hash[i]; ix != nil {
		e.class = ix.classOf(v)
	}
	code := t.cols[i].publish(e)
	t.codeOf[i][k] = code
	return code
}

// storeLocked writes row id's cells into its row group and posts them
// to every index. The row's values come from row, one per column in
// schema order, or when row is nil from the column→value map values,
// where a missing column is NULL.
//
// cqads:requires-lock mu
func (t *Table) storeLocked(id RowID, values map[string]Value, row []Value) {
	g, off := t.groupLocked(id), int(id)&(groupRows-1)
	for i := range t.cols {
		c := &t.cols[i]
		var v Value
		if row != nil {
			v = row[i]
		} else {
			v = values[c.name]
		}
		if !c.typeIII {
			code := t.codeLocked(i, v)
			g.codes[c.slot][off] = code
			if class := c.entry(code).class; class != noClass {
				t.hash[i].add(class, id)
			}
			continue
		}
		bits := math.Float64bits(v.n)
		if !v.IsNumber() || bits&excMask == excTag {
			bits = excTag | uint64(t.codeLocked(i, v))
		}
		g.nums[c.slot][off] = bits
		t.ordered[i].insert(v, id)
	}
}

// unindexLocked removes row id's postings from every index.
//
// cqads:requires-lock mu
func (t *Table) unindexLocked(id RowID) {
	g, off := t.groups[id>>groupShift], int(id)&(groupRows-1)
	for i := range t.cols {
		c := &t.cols[i]
		if c.typeIII {
			t.ordered[i].remove(c.cell(g, off), id)
		} else if class := c.entry(g.codes[c.slot][off]).class; class != noClass {
			t.hash[i].remove(class, id)
		}
	}
}

// checkColumns reports the first column of values the table does not
// have.
func (t *Table) checkColumns(values map[string]Value) error {
	for col := range values {
		if _, ok := t.colIdx[col]; !ok {
			return fmt.Errorf("sqldb: table %s has no column %q", t.name, col)
		}
	}
	return nil
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
	if err := t.checkColumns(values); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := RowID(len(t.dead))
	t.storeLocked(id, values, nil)
	t.dead = append(t.dead, false)
	t.live++
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
	if err := t.checkColumns(values); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.dead) {
		return fmt.Errorf("sqldb: table %s: slot %d is already allocated (%d slots); ids never regress", t.name, id, len(t.dead))
	}
	for RowID(len(t.dead)) < id {
		t.dead = append(t.dead, true)
	}
	t.storeLocked(id, values, nil)
	t.dead = append(t.dead, false)
	t.live++
	t.version.Add(1)
	return nil
}

// Delete tombstones the row and removes its postings from every
// index, preserving each posting list's ascending-RowID order. The
// RowID slot is retired and never reused; its cells stay where they
// are, so a Row taken before the delete still reads them. Deleting an
// unknown or already-deleted row is an error.
func (t *Table) Delete(id RowID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || int(id) >= len(t.dead) {
		return fmt.Errorf("sqldb: table %s has no row %d", t.name, id)
	}
	if t.dead[id] {
		return fmt.Errorf("sqldb: table %s row %d is already deleted", t.name, id)
	}
	t.unindexLocked(id)
	t.dead[id] = true
	t.live--
	t.version.Add(1)
	return nil
}

// Get returns the record with the given id, its Values built from the
// stored cells into a slice the caller owns. Deleted rows report
// false.
func (t *Table) Get(id RowID) (r Record, ok bool) {
	t.View(func(v View) {
		var row Row
		if row = v.Row(id); !row.IsZero() {
			r, ok = Record{ID: id, Values: row.appendValues(nil)}, true
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
	t.View(func(v View) {
		rows = make([]Record, 0, t.live)
		vals := make([]Value, 0, t.live*len(t.cols))
		for i := range t.dead {
			if t.dead[i] {
				continue
			}
			base := len(vals)
			vals = v.Row(RowID(i)).appendValues(vals)
			rows = append(rows, Record{ID: RowID(i), Values: vals[base:len(vals):len(vals)]})
		}
		slots = len(t.dead)
	})
	return slots, rows
}

// RestoreState replaces the table's contents with a previously
// exported state: slots total row slots of which rows (strictly
// ascending RowIDs, one Value per schema attribute) are live and the
// rest are tombstones. The rows are stored in new row groups (a Row
// taken before keeps reading the old ones), every index is rebuilt
// from scratch, preserving the ascending-RowID posting order Insert
// establishes, and the next Insert is assigned RowID slots — so RowIDs
// retired before the export stay retired after recovery. The table
// version moves, invalidating derived caches.
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
	t.groups = nil
	t.dead = make([]bool, slots)
	for i := range t.dead {
		t.dead[i] = true
	}
	for i := range t.cols {
		if ix := t.hash[i]; ix != nil {
			// The classes stay: the column dictionaries refer to them.
			clear(ix.postings)
		} else {
			t.ordered[i] = &orderedIndex{}
		}
	}
	for _, r := range rows {
		t.storeLocked(r.ID, nil, r.Values)
		t.dead[r.ID] = false
	}
	t.live = len(rows)
	t.version.Add(1)
	return nil
}

// Row is a read-only view of one stored ad: its table, its row group
// and its offset there. A row's cells are written once and never moved
// — Delete tombstones the slot and RestoreState installs new groups —
// so a Row reads them straight from the group, outside the table's
// lock, and still reads them after a later Delete. The zero Row is the
// view of no row: it has no columns, reads NULL and renders as a nil
// map. A Row is a value; taking one allocates nothing.
type Row struct {
	t   *Table
	g   *rowGroup
	off int
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
func (r Row) Len() int {
	if r.t == nil {
		return 0
	}
	return len(r.t.cols)
}

// At returns the value of column i, in schema order (0 <= i < Len).
func (r Row) At(i int) Value { return r.t.cols[i].cell(r.g, r.off) }

// appendValues appends the row's values, in schema order, to dst.
func (r Row) appendValues(dst []Value) []Value {
	for i := range r.t.cols {
		dst = append(dst, r.At(i))
	}
	return dst
}

// Value returns the value in the named column: NULL for an unknown
// column or the zero Row.
func (r Row) Value(col string) Value {
	if r.t == nil {
		return Null
	}
	if i, ok := r.t.colIdx[col]; ok {
		return r.At(i)
	}
	return Null
}

// All yields each column name with its value, in schema order.
func (r Row) All() iter.Seq2[string, Value] {
	return func(yield func(string, Value) bool) {
		if r.t == nil {
			return
		}
		for i := range r.t.cols {
			if !yield(r.t.cols[i].name, r.At(i)) {
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
	out := make(map[string]Value, len(r.t.cols))
	for col, v := range r.All() {
		out[col] = v
	}
	return out
}
