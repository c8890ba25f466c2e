package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/schema"
)

// TableStats summarizes a table's contents: row count and
// per-column cardinality, null count and numeric extrema — an
// inspection aid, not a planner input.
type TableStats struct {
	Table   string
	Rows    int
	Columns []ColumnStats
}

// ColumnStats describes one column.
type ColumnStats struct {
	Name     string
	Type     schema.AttrType
	Distinct int
	Nulls    int
	// Min/Max are set for numeric columns with at least one value.
	Min, Max   float64
	HasNumeric bool
}

// Stats scans the table once in a read view and returns the
// statistics of its live (non-deleted) rows. Nothing caches the
// result and nothing on the query path calls it — plans come from
// schema and statement shape alone — so the cost is paid only by
// whoever asks to look (the cqads shell's "stats <domain>").
func (t *Table) Stats() (st *TableStats) {
	t.View(func(view View) {
		st = &TableStats{Table: t.name, Rows: t.live}
		for i, a := range t.schema.Attrs {
			col := ColumnStats{Name: a.Name, Type: a.Type}
			c := &t.cols[i]
			distinct := map[string]struct{}{}
			for r := range t.dead {
				if t.dead[r] {
					continue
				}
				v := c.cell(view.at(RowID(r)))
				if v.IsNull() {
					col.Nulls++
					continue
				}
				distinct[v.String()] = struct{}{}
				if n, ok := v.tryNum(); ok {
					if !col.HasNumeric || n < col.Min {
						col.Min = n
					}
					if !col.HasNumeric || n > col.Max {
						col.Max = n
					}
					col.HasNumeric = true
				}
			}
			col.Distinct = len(distinct)
			st.Columns = append(st.Columns, col)
		}
	})
	return st
}

// String renders the stats as an aligned table.
func (st *TableStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "table %s: %d rows\n", st.Table, st.Rows)
	cols := append([]ColumnStats{}, st.Columns...)
	sort.SliceStable(cols, func(i, j int) bool { return cols[i].Type < cols[j].Type })
	for _, c := range cols {
		fmt.Fprintf(&sb, "  %-14s %-9v distinct=%-5d nulls=%-4d", c.Name, c.Type, c.Distinct, c.Nulls)
		if c.HasNumeric {
			fmt.Fprintf(&sb, " range=[%g, %g]", c.Min, c.Max)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
