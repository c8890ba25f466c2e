package core

import (
	"repro/internal/boolean"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sqldb"
)

// BuildSelect compiles an interpretation into the SELECT statement of
// Sec. 4.5. Groups become OR-joined conjunctions; conditions within a
// group are already ordered Type I → Type II → Type III (the
// evaluation order of Sec. 4.3); a superlative becomes ORDER BY, with
// the extreme-set filter applied by the executor wrapper. limit caps
// the answer count (the paper's 30-answer cutoff).
func BuildSelect(s *schema.Schema, in *boolean.Interpretation, limit int) *sql.Select {
	sel := &sql.Select{Table: s.Table, Limit: limit}
	var groups []sql.Expr
	for gi := range in.Groups {
		g := &in.Groups[gi]
		var conds []sql.Expr
		for ci := range g.Conds {
			conds = append(conds, condExpr(&g.Conds[ci]))
		}
		switch len(conds) {
		case 0:
		case 1:
			groups = append(groups, conds[0])
		default:
			groups = append(groups, &sql.And{Operands: conds})
		}
	}
	switch len(groups) {
	case 0:
	case 1:
		sel.Where = groups[0]
	default:
		sel.Where = &sql.Or{Operands: groups}
	}
	if in.Superlative != nil {
		sel.OrderBy = in.Superlative.Attr
		sel.Desc = in.Superlative.Descending
	}
	return sel
}

// groupConds returns the nodes of a group's conditions in where, the
// WHERE that BuildSelect built from in: the k-th group that has
// conditions, which must have two or more. BuildSelect makes such a
// group an AND of one node per condition, in order, and makes the
// groups with conditions the operands of an OR when there are two or
// more of them.
func groupConds(where sql.Expr, in *boolean.Interpretation, k int) []sql.Expr {
	groups := 0
	for gi := range in.Groups {
		if len(in.Groups[gi].Conds) > 0 {
			groups++
		}
	}
	if groups > 1 {
		where = where.(*sql.Or).Operands[k]
	}
	return where.(*sql.And).Operands
}

// condExpr compiles one condition to a WHERE node.
func condExpr(c *boolean.Condition) sql.Expr {
	var e sql.Expr
	if c.IsNumeric() {
		switch c.Op {
		case boolean.OpEq:
			e = &sql.Compare{Column: c.Attr, Op: sql.OpEq, Value: sqldb.Number(c.X)}
		case boolean.OpLt:
			e = &sql.Compare{Column: c.Attr, Op: sql.OpLt, Value: sqldb.Number(c.X)}
		case boolean.OpLe:
			e = &sql.Compare{Column: c.Attr, Op: sql.OpLe, Value: sqldb.Number(c.X)}
		case boolean.OpGt:
			e = &sql.Compare{Column: c.Attr, Op: sql.OpGt, Value: sqldb.Number(c.X)}
		case boolean.OpGe:
			e = &sql.Compare{Column: c.Attr, Op: sql.OpGe, Value: sqldb.Number(c.X)}
		case boolean.OpBetween:
			e = &sql.Between{Column: c.Attr, Lo: c.X, Hi: c.Y}
		}
	} else {
		var vals []sql.Expr
		for _, v := range c.Values {
			vals = append(vals, &sql.Compare{Column: c.Attr, Op: sql.OpEq, Value: sqldb.String(v)})
		}
		if len(vals) == 1 {
			e = vals[0]
		} else {
			e = &sql.Or{Operands: vals}
		}
	}
	if c.Negated {
		e = &sql.Not{Operand: e}
	}
	return e
}

// ResolveIncomplete expands unanchored numeric conditions per the
// best-guess rule of Sec. 4.2.2: a number with no identifying keyword
// is treated as a potential value of every Type III attribute whose
// valid range admits it, and the possible readings are unioned. A
// group whose unanchored number fits no attribute keeps an impossible
// condition so it matches nothing, mirroring "CQAds excludes any
// record that does not include V in the valid range of any of its
// Type III attributes".
func ResolveIncomplete(s *schema.Schema, in *boolean.Interpretation) *boolean.Interpretation {
	out := &boolean.Interpretation{Superlative: in.Superlative, Empty: in.Empty}
	for gi := range in.Groups {
		out.Groups = append(out.Groups, expandGroup(s, &in.Groups[gi])...)
	}
	return out
}

func expandGroup(s *schema.Schema, g *boolean.Group) []boolean.Group {
	groups := []boolean.Group{{}}
	for _, c := range g.Conds {
		if !c.IsNumeric() || c.Attr != "" {
			for i := range groups {
				groups[i].Conds = append(groups[i].Conds, c)
			}
			continue
		}
		cands := candidatesFor(s, &c)
		if len(cands) == 0 {
			// No attribute admits the value: impossible condition.
			impossible := c
			impossible.Attr = s.NumericAttrs()[0].Name
			impossible.Op = boolean.OpLt
			impossible.X = s.NumericAttrs()[0].Min - 1
			for i := range groups {
				groups[i].Conds = append(groups[i].Conds, impossible)
			}
			continue
		}
		var expanded []boolean.Group
		for _, attr := range cands {
			for _, base := range groups {
				ng := boolean.Group{Conds: append(append([]boolean.Condition{}, base.Conds...), anchored(c, attr))}
				expanded = append(expanded, ng)
			}
		}
		groups = expanded
	}
	return groups
}

// candidatesFor returns the Type III attributes whose valid range
// admits the condition's value(s). For boundary conditions the value
// itself must still fall in the attribute range, per Example 3
// ("4000 is not in the range of valid years").
func candidatesFor(s *schema.Schema, c *boolean.Condition) []string {
	var out []string
	for _, a := range s.NumericAttrs() {
		if !a.InRange(c.X) {
			continue
		}
		if c.Op == boolean.OpBetween && !a.InRange(c.Y) {
			continue
		}
		out = append(out, a.Name)
	}
	return out
}

func anchored(c boolean.Condition, attr string) boolean.Condition {
	c.Attr = attr
	return c
}
