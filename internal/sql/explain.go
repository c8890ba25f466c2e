package sql

import (
	"fmt"
	"strings"

	"repro/internal/sqldb"
)

// Explain renders the compiled plan for a SELECT — the plan Exec
// runs, not a description beside it: for each conjunction the driving
// scan and its access path (the hash primary/secondary indexes on Type
// I/II columns, the ordered indexes on Type III columns), the = leaves
// on hashed columns applied by searching their postings, and the
// conjuncts pushed down as per-row residual predicates; for an OR the
// branches appended into one buffer; for a NOT the live rows it
// subtracts from. A plan is a function of schema and statement shape
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
		fmt.Fprintf(sb, "%slive rows minus:\n", pad)
		n.children[0].explain(sb, depth+1)
	case nkOr:
		fmt.Fprintf(sb, "%sunion of %d branches (one buffer, sorted and deduplicated):\n", pad, len(n.children))
		for _, c := range n.children {
			c.explain(sb, depth+1)
		}
	case nkAnd:
		fmt.Fprintf(sb, "%sstreamed conjunction:\n", pad)
		if n.driving < 0 {
			fmt.Fprintf(sb, "%s  driving scan: every live row (no leaf to drive)\n", pad)
		}
		for i, c := range n.children {
			switch {
			case i == n.driving:
				fmt.Fprintf(sb, "%s  driving scan: %s via %s\n", pad, c.shape(), c.access)
			case c.intersect:
				fmt.Fprintf(sb, "%s  intersect posting: %s\n", pad, c.shape())
			default:
				fmt.Fprintf(sb, "%s  pushed residual: %s (checked per row)\n", pad, c.shape())
			}
		}
	}
}

// shape prints a node as SQL with ? for each literal.
func (n *planNode) shape() string {
	switch n.kind {
	case nkNot:
		return "NOT " + n.children[0].operandShape()
	case nkOr, nkAnd:
		conj := " OR "
		if n.kind == nkAnd {
			conj = " AND "
		}
		parts := make([]string, len(n.children))
		for i, c := range n.children {
			parts[i] = c.operandShape()
		}
		return strings.Join(parts, conj)
	}
	if n.leaf == lkBetween {
		return n.col + " BETWEEN ? AND ?"
	}
	return fmt.Sprintf("%s %s ?", n.col, n.op)
}

// operandShape is shape, parenthesized when n is an OR or an AND.
func (n *planNode) operandShape() string {
	if n.kind == nkOr || n.kind == nkAnd {
		return "(" + n.shape() + ")"
	}
	return n.shape()
}
