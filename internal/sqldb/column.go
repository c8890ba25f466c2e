package sqldb

import (
	"math"
	"sync/atomic"
)

// This file is the table's storage: column-major row groups of
// dictionary codes and float bits (PAX, Ailamaki et al., VLDB 2001).
//
// A Type I or II cell is a uint32 code into its column's dictionary of
// stored Values. A Type III cell is the float64 it holds, as bits; the
// rare cell that is NULL, a string, or a number whose bits collide
// with the exception tag is stored in the column's dictionary too, and
// the cell holds excTag plus its code. Each distinct value is
// classified once, when it enters the dictionary: its numeric reading
// (tryNum) and its hash index class.
//
// Nothing stored is ever moved or rewritten, so a Row reads its cells
// outside the table's lock while later writes land:
//   - a row group has a fixed capacity, is allocated whole, and each of
//     its cells is written once, by the insert that fills its slot;
//     RestoreState installs new groups rather than rewriting old ones;
//   - a dictionary is append-only and published through an atomic
//     pointer: an insert writes the new entry past the published
//     length, then publishes the longer slice, so an entry a reader can
//     reach is never written again.

// A row group holds groupRows consecutive slots.
const (
	groupShift = 10
	groupRows  = 1 << groupShift
)

// A Type III cell whose top 32 bits are excTag is an exception: its
// low 32 bits are the code of its value in the column's dictionary.
// excTag is a signalling NaN's top half, which no generated number has;
// a number that has it anyway is stored as an exception, so every
// float keeps its bits.
const (
	excTag  uint64 = 0x7ff0_dead_0000_0000
	excMask uint64 = 0xffff_ffff_0000_0000
)

// noClass is the hash index class of NULL, which no posting holds.
const noClass = math.MaxUint32

// rowGroup holds the cells of groupRows consecutive slots, one array
// per column.
type rowGroup struct {
	codes [][]uint32 // Type I/II columns, by column slot
	nums  [][]uint64 // Type III columns, by column slot: float64 bits
}

func newRowGroup(nCoded, nNum int) *rowGroup {
	g := &rowGroup{codes: make([][]uint32, nCoded), nums: make([][]uint64, nNum)}
	codes := make([]uint32, nCoded*groupRows)
	for i := range g.codes {
		g.codes[i] = codes[i*groupRows : (i+1)*groupRows : (i+1)*groupRows]
	}
	nums := make([]uint64, nNum*groupRows)
	for i := range g.nums {
		g.nums[i] = nums[i*groupRows : (i+1)*groupRows : (i+1)*groupRows]
	}
	return g
}

// entry is one dictionary value, classified once.
type entry struct {
	v       Value
	num     float64 // v.tryNum()
	numeric bool
	class   uint32 // the hash index class of v (Type I/II columns); noClass for NULL
}

// cellKey identifies a stored Value exactly: kind, text and float
// bits, so '2' and '2.0', -0 and 0, and NaNs of different bits are
// different dictionary entries, and Get returns each as inserted.
type cellKey struct {
	s    string
	bits uint64
	kind uint8
}

func keyOf(v Value) cellKey {
	switch {
	case v.IsNull():
		return cellKey{}
	case v.IsNumber():
		return cellKey{bits: math.Float64bits(v.n), kind: 2}
	}
	return cellKey{s: v.s, kind: 1}
}

// column is one attribute's storage metadata. Everything but dict is
// immutable after NewTable.
type column struct {
	name    string
	typeIII bool
	slot    int // index into rowGroup.codes or rowGroup.nums
	// dict is the published, append-only dictionary. Code 0 is NULL.
	dict atomic.Pointer[[]entry]
}

// entry returns the dictionary entry of code.
func (c *column) entry(code uint32) *entry {
	return &(*c.dict.Load())[code]
}

// cell returns the Value stored at offset off of group g.
func (c *column) cell(g *rowGroup, off int) Value {
	if c.typeIII {
		bits := g.nums[c.slot][off]
		if bits&excMask != excTag {
			return Number(math.Float64frombits(bits))
		}
		return c.entry(uint32(bits)).v
	}
	return c.entry(g.codes[c.slot][off]).v
}

// num returns the numeric reading of the cell at offset off of group
// g: Value.tryNum of the stored value, without building it.
func (c *column) num(g *rowGroup, off int) (float64, bool) {
	if c.typeIII {
		bits := g.nums[c.slot][off]
		if bits&excMask != excTag {
			return math.Float64frombits(bits), true
		}
		e := c.entry(uint32(bits))
		return e.num, e.numeric
	}
	e := c.entry(g.codes[c.slot][off])
	return e.num, e.numeric
}

// publish appends e to the dictionary and returns its code. The entry
// is written past the published length (or into a fresh copy when the
// capacity is spent) before the longer slice is published, so no
// reader ever sees it written.
func (c *column) publish(e entry) uint32 {
	d := *c.dict.Load()
	code := uint32(len(d))
	d = append(d, e)
	c.dict.Store(&d)
	return code
}
