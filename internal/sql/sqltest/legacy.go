package sqltest

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sqldb"
)

// ExecLegacy evaluates a SELECT against db with the original eager
// evaluator: every WHERE leaf materializes its full posting list and
// AND/OR combine the sets with sorted merges. It is the behavioral
// reference the streaming executor (sql.Exec) is held to: the
// differential fuzz test and core's under-ingest check
// (TestExactAnswersUnderIngest) assert the two return bit-identical
// results. An equality on a Type III column is
// a scan with Value.Equal here, so the ordered index's point lookup
// the executor uses is checked against the semantics it stands in for.
func ExecLegacy(db *sqldb.DB, sel *sql.Select) ([]sqldb.RowID, error) {
	tbl, ok := db.Table(sel.Table)
	if !ok {
		if tbl, ok = db.TableForDomain(sel.Table); !ok {
			return nil, fmt.Errorf("sql: unknown table %q", sel.Table)
		}
	}
	var ids []sqldb.RowID
	if sel.Where == nil {
		ids = tbl.AllRowIDs()
	} else {
		var err error
		if ids, err = evalExpr(tbl, sel.Where); err != nil {
			return nil, err
		}
	}
	if sel.OrderBy != "" {
		if !hasColumn(tbl, sel.OrderBy) {
			return nil, fmt.Errorf("sql: unknown ORDER BY column %q", sel.OrderBy)
		}
		ids = tbl.SortByColumn(ids, sel.OrderBy, sel.Desc)
	}
	if sel.Limit > 0 && len(ids) > sel.Limit {
		ids = ids[:sel.Limit]
	}
	return ids, nil
}

// evalExpr evaluates a WHERE node to a sorted set of row ids.
func evalExpr(tbl *sqldb.Table, e sql.Expr) ([]sqldb.RowID, error) {
	switch n := e.(type) {
	case *sql.Compare:
		return evalCompare(tbl, n)
	case *sql.Between:
		if !hasColumn(tbl, n.Column) {
			return nil, fmt.Errorf("sql: unknown column %q", n.Column)
		}
		return lookupRange(tbl, n.Column, n.Lo, n.Hi, true, true), nil
	case *sql.And:
		var acc []sqldb.RowID
		for i, op := range n.Operands {
			ids, err := evalExpr(tbl, op)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				acc = ids
			} else {
				acc = intersectSorted(acc, ids)
			}
			if len(acc) == 0 {
				return nil, nil
			}
		}
		return acc, nil
	case *sql.Or:
		var acc []sqldb.RowID
		for _, op := range n.Operands {
			ids, err := evalExpr(tbl, op)
			if err != nil {
				return nil, err
			}
			acc = unionSorted(acc, ids)
		}
		return acc, nil
	case *sql.Not:
		inner, err := evalExpr(tbl, n.Operand)
		if err != nil {
			return nil, err
		}
		return complement(tbl, inner), nil
	}
	return nil, fmt.Errorf("sql: unsupported expression node %T", e)
}

func evalCompare(tbl *sqldb.Table, c *sql.Compare) ([]sqldb.RowID, error) {
	if !hasColumn(tbl, c.Column) {
		return nil, fmt.Errorf("sql: unknown column %q", c.Column)
	}
	switch c.Op {
	case sql.OpEq:
		if a, ok := tbl.Schema().Attr(c.Column); ok && a.Type == schema.TypeIII {
			var out []sqldb.RowID
			for _, id := range tbl.AllRowIDs() {
				if tbl.Value(id, c.Column).Equal(c.Value) {
					out = append(out, id)
				}
			}
			return out, nil
		}
		var out []sqldb.RowID
		tbl.View(func(v sqldb.View) { out = v.AppendEqual(nil, c.Column, c.Value) })
		return out, nil
	case sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		if !c.Value.IsNumber() {
			return nil, fmt.Errorf("sql: %s requires a numeric literal on column %q", c.Op, c.Column)
		}
		n := c.Value.Num()
		switch c.Op {
		case sql.OpLt:
			return lookupRange(tbl, c.Column, math.Inf(-1), n, false, false), nil
		case sql.OpLe:
			return lookupRange(tbl, c.Column, math.Inf(-1), n, false, true), nil
		case sql.OpGt:
			return lookupRange(tbl, c.Column, n, math.Inf(1), false, false), nil
		default: // OpGe
			return lookupRange(tbl, c.Column, n, math.Inf(1), true, false), nil
		}
	}
	return nil, fmt.Errorf("sql: unsupported operator %q", c.Op)
}

// complement returns the live rows of tbl not in the ascending set ids.
func complement(tbl *sqldb.Table, ids []sqldb.RowID) []sqldb.RowID {
	var out []sqldb.RowID
	for _, id := range tbl.AllRowIDs() {
		if _, found := slices.BinarySearch(ids, id); !found {
			out = append(out, id)
		}
	}
	return out
}

// lookupRange returns the rows whose numeric col lies within the
// bounds, in ascending RowID order.
func lookupRange(tbl *sqldb.Table, col string, lo, hi float64, incLo, incHi bool) []sqldb.RowID {
	var ids []sqldb.RowID
	tbl.View(func(v sqldb.View) { ids = v.AppendRange(nil, col, lo, hi, incLo, incHi) })
	slices.Sort(ids)
	return ids
}

// intersectSorted intersects two ascending RowID slices into a new
// slice.
func intersectSorted(a, b []sqldb.RowID) []sqldb.RowID {
	out := make([]sqldb.RowID, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// unionSorted unions two ascending RowID slices into a new slice.
func unionSorted(a, b []sqldb.RowID) []sqldb.RowID {
	out := make([]sqldb.RowID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func hasColumn(tbl *sqldb.Table, col string) bool {
	_, ok := tbl.Schema().Attr(col)
	return ok
}
