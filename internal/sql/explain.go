package sql

import (
	"fmt"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqldb"
)

// Explain renders the plan Exec runs for a SELECT — read off the
// statement by the functions the executor calls, not a description
// beside it: for each conjunction the driving scan and its access path
// (the hash primary/secondary indexes on Type I/II columns, the
// ordered indexes on Type III columns), the = leaves on hashed columns
// applied by searching their postings, and the conjuncts pushed down
// as per-row residual predicates; for an OR the branches appended into
// one buffer; for a NOT the live rows it subtracts from. A plan is a
// function of schema and statement shape only (Sec. 4.3's Type I → II
// → III order, read off the statement), so conditions print with ? in
// place of their literals: two statements of one shape explain
// identically.
func Explain(db *sqldb.DB, sel *Select) (string, error) {
	tbl, err := resolveTable(db, sel.Table)
	if err != nil {
		return "", err
	}
	sch := tbl.Schema()
	if err := check(sch, sel); err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT on %s (%d rows)\n", tbl.Name(), tbl.Len())
	if sel.Where == nil {
		sb.WriteString("  full scan (no WHERE)\n")
	} else {
		explain(&sb, sch, sel.Where, 1)
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

// explain renders the plan of a validated WHERE node e at depth.
func explain(sb *strings.Builder, sch *schema.Schema, e Expr, depth int) {
	pad := strings.Repeat("  ", depth)
	switch x := e.(type) {
	case *Not:
		fmt.Fprintf(sb, "%slive rows minus:\n", pad)
		explain(sb, sch, x.Operand, depth+1)
	case *Or:
		fmt.Fprintf(sb, "%sunion of %d branches (one buffer, sorted and deduplicated):\n", pad, len(x.Operands))
		for _, op := range x.Operands {
			explain(sb, sch, op, depth+1)
		}
	case *And:
		fmt.Fprintf(sb, "%sstreamed conjunction:\n", pad)
		driving := drivingOperand(sch, x.Operands)
		if driving < 0 {
			fmt.Fprintf(sb, "%s  driving scan: every live row (no leaf to drive)\n", pad)
		}
		for i, op := range x.Operands {
			switch {
			case i == driving:
				_, access, _ := leafAccess(sch, op)
				fmt.Fprintf(sb, "%s  driving scan: %s via %s\n", pad, shape(op), access)
			case intersects(sch, x.Operands, driving, i):
				fmt.Fprintf(sb, "%s  intersect posting: %s\n", pad, shape(op))
			default:
				fmt.Fprintf(sb, "%s  pushed residual: %s (checked per row)\n", pad, shape(op))
			}
		}
	default:
		_, access, _ := leafAccess(sch, e)
		fmt.Fprintf(sb, "%s%s: %s\n", pad, shape(e), access)
	}
}

// shape prints a node as SQL with ? for each literal.
func shape(e Expr) string {
	var ops []Expr
	conj := " AND "
	switch x := e.(type) {
	case *Compare:
		return fmt.Sprintf("%s %s ?", x.Column, x.Op)
	case *Between:
		return x.Column + " BETWEEN ? AND ?"
	case *Not:
		return "NOT " + operandShape(x.Operand)
	case *Or:
		ops, conj = x.Operands, " OR "
	case *And:
		ops = x.Operands
	}
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = operandShape(op)
	}
	return strings.Join(parts, conj)
}

// operandShape is shape, parenthesized when e is an OR or an AND.
func operandShape(e Expr) string {
	switch e.(type) {
	case *Or, *And:
		return "(" + shape(e) + ")"
	}
	return shape(e)
}
