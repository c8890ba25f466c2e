// Package sql implements the SQL subset that CQAds compiles questions
// into (Sec. 4.5): single-table SELECTs with WHERE expressions over
// =, <, >, <=, >= and BETWEEN, combined with AND/OR/NOT, plus ORDER BY
// and LIMIT for superlatives and the 30-answer cutoff. The subset is
// exactly what core.BuildSelect emits and nothing more. SQL is output
// only: core.BuildSelect builds the AST, Select.SQL renders it, and
// Compile plans it against the sqldb indexes. Nothing in production
// parses SQL text; the parser and the eager reference evaluator live
// in the test-support package sql/sqltest.
package sql

import (
	"fmt"
	"strings"

	"repro/internal/sqldb"
)

// Select is a SELECT statement:
//
//	SELECT * FROM table [WHERE expr] [ORDER BY col [ASC|DESC]] [LIMIT n]
type Select struct {
	Table   string
	Where   Expr // nil when absent
	OrderBy string
	Desc    bool
	Limit   int // 0 means no limit
}

// Expr is a boolean expression node in a WHERE clause.
type Expr interface {
	// SQL renders the node back to SQL text.
	SQL() string
}

// BinaryOp enumerates comparison operators.
type BinaryOp string

// Comparison operators of the subset.
const (
	OpEq BinaryOp = "="
	OpLt BinaryOp = "<"
	OpLe BinaryOp = "<="
	OpGt BinaryOp = ">"
	OpGe BinaryOp = ">="
)

// Compare is `column op literal`.
type Compare struct {
	Column string
	Op     BinaryOp
	Value  sqldb.Value
}

// SQL implements Expr.
func (c *Compare) SQL() string {
	return fmt.Sprintf("%s %s %s", c.Column, c.Op, literal(c.Value))
}

// Between is `column BETWEEN lo AND hi` (inclusive on both ends, as
// in SQL).
type Between struct {
	Column string
	Lo, Hi float64
}

// SQL implements Expr.
func (b *Between) SQL() string {
	return fmt.Sprintf("%s BETWEEN %s AND %s",
		b.Column, sqldb.Number(b.Lo), sqldb.Number(b.Hi))
}

// And is the conjunction of two or more operands.
type And struct{ Operands []Expr }

// SQL implements Expr.
func (a *And) SQL() string { return joinSQL(a.Operands, "AND") }

// Or is the disjunction of two or more operands.
type Or struct{ Operands []Expr }

// SQL implements Expr.
func (o *Or) SQL() string { return joinSQL(o.Operands, "OR") }

// Not negates its operand.
type Not struct{ Operand Expr }

// SQL implements Expr.
func (n *Not) SQL() string { return "NOT (" + n.Operand.SQL() + ")" }

func joinSQL(ops []Expr, conj string) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		switch op.(type) {
		case *And, *Or:
			parts[i] = "(" + op.SQL() + ")"
		default:
			parts[i] = op.SQL()
		}
	}
	return strings.Join(parts, " "+conj+" ")
}

// SQL renders the statement back to SQL text.
func (s *Select) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT * FROM ")
	sb.WriteString(s.Table)
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.SQL())
	}
	if s.OrderBy != "" {
		sb.WriteString(" ORDER BY ")
		sb.WriteString(s.OrderBy)
		if s.Desc {
			sb.WriteString(" DESC")
		}
	}
	if s.Limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

func literal(v sqldb.Value) string {
	if v.IsNumber() {
		return v.String()
	}
	return "'" + escape(v.Str()) + "'"
}

func escape(s string) string { return strings.ReplaceAll(s, "'", "''") }
