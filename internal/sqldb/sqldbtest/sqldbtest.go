// Package sqldbtest compares two sqldb tables cell by cell: the oracle
// the recovery, replication and on-disk format tests share, so that a
// recovered, replicated or decoded table is held to the table it
// stands for and not only to its row counts.
package sqldbtest

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sqldb"
)

// maxDiffs caps the differences one comparison reports.
const maxDiffs = 10

// AssertSameTable fails tb unless got holds want's contents: the same
// slot count, the same liveness in every slot, and in every live slot
// the same cell in every column, compared by identity (kind, text and
// float bits), so '2' and '2.0', -0 and 0, and two NaNs of different
// bits all differ. A nil keep compares every slot. Otherwise a slot
// whose id keep rejects must be dead in got (want may hold a row
// there: a partition or a filtered follower does not), and the slots
// keep accepts are compared as above.
func AssertSameTable(tb testing.TB, label string, got, want *sqldb.Table, keep func(sqldb.RowID) bool) {
	tb.Helper()
	if got.Slots() != want.Slots() {
		tb.Fatalf("%s: %s has %d slots, want %d", label, got.Name(), got.Slots(), want.Slots())
	}
	if a, b := len(got.Schema().Attrs), len(want.Schema().Attrs); a != b {
		tb.Fatalf("%s: %s has %d columns, want %d", label, got.Name(), a, b)
	}
	attrs := want.Schema().Attrs
	var diffs []string
	compared := 0
	for id := sqldb.RowID(0); id < sqldb.RowID(want.Slots()); id++ {
		g, w := got.Row(id), want.Row(id)
		switch {
		case keep != nil && !keep(id):
			if !g.IsZero() {
				diffs = append(diffs, fmt.Sprintf("row %d is live outside the kept set", id))
			}
		case g.IsZero() != w.IsZero():
			diffs = append(diffs, fmt.Sprintf("row %d live=%v, want live=%v", id, !g.IsZero(), !w.IsZero()))
		case !g.IsZero():
			compared++
			for i := range attrs {
				if gv, wv := g.At(i), w.At(i); !SameCell(gv, wv) {
					diffs = append(diffs, fmt.Sprintf("row %d column %s = %#v, want %#v", id, attrs[i].Name, gv, wv))
				}
			}
		}
	}
	for i, d := range diffs {
		if i == maxDiffs {
			tb.Errorf("%s: %s: %d more differences not shown", label, got.Name(), len(diffs)-maxDiffs)
			break
		}
		tb.Errorf("%s: %s: %s", label, got.Name(), d)
	}
	if keep != nil && compared == 0 {
		tb.Errorf("%s: %s holds no kept row; the comparison exercised nothing", label, got.Name())
	}
}

// SameCell reports whether a and b are the same stored cell: both
// NULL, two strings of the same text, or two numbers with the same
// float bits.
func SameCell(a, b sqldb.Value) bool {
	switch {
	case a.IsNull() || b.IsNull():
		return a.IsNull() && b.IsNull()
	case a.IsNumber() != b.IsNumber():
		return false
	case a.IsNumber():
		return math.Float64bits(a.Num()) == math.Float64bits(b.Num())
	}
	return a.Str() == b.Str()
}
