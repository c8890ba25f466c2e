package sql

import (
	"fmt"
	"strings"

	"repro/internal/sqldb"
)

// Explain renders the compiled plan for a SELECT — the plan Exec
// runs, not a description beside it: for each conjunction the driving
// scan and its access path (the hash primary/secondary indexes on Type
// I/II columns, the ordered indexes on Type III columns), the
// conjuncts pushed down as per-row residual predicates, and the ones
// materialized into membership sets. A plan is a function of schema and statement shape
// only (Sec. 4.3's Type I → II → III order, read off the statement),
// so conditions print with ? in place of their literals: two
// statements of one shape explain identically.
func Explain(db *sqldb.DB, sel *Select) (string, error) {
	p, err := Compile(db, sel)
	if err != nil {
		return "", err
	}
	tbl, err := resolveTable(db, sel.Table)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT on %s (%d rows)\n", tbl.Name(), tbl.Len())
	if p.root == nil {
		sb.WriteString("  full scan (no WHERE)\n")
	} else {
		p.root.explain(&sb, 1)
	}
	if sel.OrderBy != "" {
		dir := "ASC"
		if sel.Desc {
			dir = "DESC"
		}
		fmt.Fprintf(&sb, "  sort by %s %s (superlative evaluated last)\n", sel.OrderBy, dir)
	}
	if sel.Limit > 0 {
		fmt.Fprintf(&sb, "  limit %d (answer cutoff)\n", sel.Limit)
	}
	return sb.String(), nil
}

func (n *planNode) explain(sb *strings.Builder, depth int) {
	pad := strings.Repeat("  ", depth)
	switch n.kind {
	case nkLeaf:
		fmt.Fprintf(sb, "%s%s: %s\n", pad, n.shape(), n.access)
	case nkNot:
		fmt.Fprintf(sb, "%scomplement of:\n", pad)
		n.children[0].explain(sb, depth+1)
	case nkOr:
		fmt.Fprintf(sb, "%sunion of %d branches:\n", pad, len(n.children))
		for _, c := range n.children {
			c.explain(sb, depth+1)
		}
	case nkAnd:
		if n.driving < 0 {
			fmt.Fprintf(sb, "%seager intersection of %d sets (no drivable leaf):\n", pad, len(n.children))
			for _, c := range n.children {
				c.explain(sb, depth+1)
			}
			return
		}
		fmt.Fprintf(sb, "%sstreamed conjunction:\n", pad)
		for i, c := range n.children {
			switch {
			case i == n.driving:
				fmt.Fprintf(sb, "%s  driving scan: %s via %s\n", pad, c.shape(), c.access)
			case c.predOK:
				fmt.Fprintf(sb, "%s  pushed residual: %s (checked per row)\n", pad, c.shape())
			default:
				fmt.Fprintf(sb, "%s  membership set from:\n", pad)
				c.explain(sb, depth+2)
			}
		}
	}
}

// shape prints a leaf or a negated leaf as SQL with ? for each
// literal. Conjunctions and unions have no one-line shape;
// explain renders them as subtrees and never asks for one.
func (n *planNode) shape() string {
	switch {
	case n.kind == nkNot:
		return "NOT " + n.children[0].shape()
	case n.leaf == lkBetween:
		return n.col + " BETWEEN ? AND ?"
	}
	return fmt.Sprintf("%s %s ?", n.col, n.op)
}
