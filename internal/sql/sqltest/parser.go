package sqltest

import (
	"fmt"

	"repro/internal/sql"
	"repro/internal/sqldb"
)

// Parse parses a SELECT statement of the subset sql.Select renders.
// IN subqueries, LIKE, <> and != are not part of it.
func Parse(input string) (*sql.Select, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errorf("trailing input starting at %q", p.peek().text)
	}
	return sel, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// at reports whether the current token has the given kind (and text,
// when text is non-empty).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the current token when it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if !p.at(kind, text) {
		return token{}, p.errorf("expected %q, found %q", text, p.peek().text)
	}
	return p.next(), nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error at position %d: %s",
		p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseSelect() (*sql.Select, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "*"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	sel := &sql.Select{Table: tbl}
	if p.accept(tokKeyword, "WHERE") {
		sel.Where, err = p.parseOr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		col, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		sel.OrderBy = col
		if p.accept(tokKeyword, "DESC") {
			sel.Desc = true
		} else {
			p.accept(tokKeyword, "ASC")
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errorf("expected number after LIMIT")
		}
		p.next()
		sel.Limit = int(t.num)
	}
	return sel, nil
}

// parseTableRef parses `table [alias]`.
func (p *parser) parseTableRef() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errorf("expected table name, found %q", t.text)
	}
	p.next()
	// Optional alias.
	if p.at(tokIdent, "") {
		p.next()
	}
	return t.text, nil
}

// parseColumnRef parses `column` or `alias.column`, returning the bare
// column name.
func (p *parser) parseColumnRef() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errorf("expected column name, found %q", t.text)
	}
	p.next()
	if p.accept(tokSymbol, ".") {
		t2 := p.peek()
		if t2.kind != tokIdent {
			return "", p.errorf("expected column after '.', found %q", t2.text)
		}
		p.next()
		return t2.text, nil
	}
	return t.text, nil
}

// parseOr handles the lowest-precedence operator.
func (p *parser) parseOr() (sql.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	operands := []sql.Expr{left}
	for p.accept(tokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		operands = append(operands, right)
	}
	if len(operands) == 1 {
		return left, nil
	}
	return &sql.Or{Operands: operands}, nil
}

func (p *parser) parseAnd() (sql.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	operands := []sql.Expr{left}
	for p.accept(tokKeyword, "AND") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		operands = append(operands, right)
	}
	if len(operands) == 1 {
		return left, nil
	}
	return &sql.And{Operands: operands}, nil
}

func (p *parser) parseUnary() (sql.Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &sql.Not{Operand: inner}, nil
	}
	if p.accept(tokSymbol, "(") {
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (sql.Expr, error) {
	col, err := p.parseColumnRef()
	if err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "NOT") {
		// column NOT BETWEEN
		if !p.at(tokKeyword, "BETWEEN") {
			return nil, p.errorf("expected BETWEEN after NOT, found %q", p.peek().text)
		}
		inner, err := p.parseCondition(col)
		if err != nil {
			return nil, err
		}
		return &sql.Not{Operand: inner}, nil
	}
	return p.parseCondition(col)
}

// parseCondition parses what follows a column: a comparison or
// BETWEEN.
func (p *parser) parseCondition(col string) (sql.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokSymbol && isCompareOp(t.text):
		p.next()
		val, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &sql.Compare{Column: col, Op: sql.BinaryOp(t.text), Value: val}, nil
	case t.kind == tokKeyword && t.text == "BETWEEN":
		p.next()
		lo := p.peek()
		if lo.kind != tokNumber {
			return nil, p.errorf("expected number after BETWEEN")
		}
		p.next()
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi := p.peek()
		if hi.kind != tokNumber {
			return nil, p.errorf("expected number after BETWEEN ... AND")
		}
		p.next()
		return &sql.Between{Column: col, Lo: lo.num, Hi: hi.num}, nil
	}
	return nil, p.errorf("expected comparison operator after column %q, found %q", col, t.text)
}

func (p *parser) parseLiteral() (sqldb.Value, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		return sqldb.Number(t.num), nil
	case tokString:
		p.next()
		return sqldb.String(t.text), nil
	case tokKeyword:
		if t.text == "NULL" {
			p.next()
			return sqldb.Null, nil
		}
	}
	return sqldb.Null, p.errorf("expected literal, found %q", t.text)
}

func isCompareOp(s string) bool {
	switch sql.BinaryOp(s) {
	case sql.OpEq, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		return true
	}
	return false
}
