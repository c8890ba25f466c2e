package sql

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/schema"
	"repro/internal/sqldb"
)

// This file is the streaming query executor.
//
// Compile turns a SELECT into a Plan from the table's schema and the
// statement's shape alone — no table contents, no statistics, no
// literal values. The paper fixes the evaluation order (Sec. 4.3: Type
// I conditions first, then Type II, then Type III, superlatives last)
// and core.BuildSelect emits every conjunction in that order, so the
// planner reads the order off the statement: each conjunction is
// driven by its first operand that an index serves (= on a hashed Type
// I/II column, a range or BETWEEN on an ordered Type III column), else
// by its first drivable leaf. Every other conjunct is pushed down as a
// per-row residual predicate (sqldb.Pred) checked on the stream, so
// non-driving conditions never materialize posting lists; a residual
// selects exactly the rows its leaf's lookup would, so the result does
// not depend on which operand drives. OR and NOT nodes materialize
// their operands and merge sorted sets. A LIMIT with no ORDER BY is
// pushed into the scan for early termination.
//
// A Plan annotates the *shape* of the expression tree (node kinds,
// columns, operators) with driving choices, and Run re-binds the
// literals of the concrete Select by walking the two trees in
// lockstep. Being a pure function of (schema, shape), a plan is
// cacheable across the millions of questions that share a few hundred
// tagged shapes and stays valid however the corpus changes
// (internal/sql/plan.Cache); a Select whose shape does not match the
// plan is defensively recompiled, so a mismatched plan can cost time
// but never correctness.
//
// Exec = Compile + Run must return results bit-identical to the eager
// reference evaluator (sqltest.ExecLegacy) for every valid query. The
// one intentional divergence is error strictness: Compile validates
// the whole statement up front, while the eager evaluator's AND
// short-circuits on an empty operand and may never reach an invalid
// later operand. Exec is therefore strictly stricter — it errors on
// every statement the reference errors on, plus some the reference
// happens to answer by luck of evaluation order.

// Exec evaluates a SELECT against db and returns the matching
// row ids in result order (index order, then ORDER BY, then LIMIT).
// It compiles a streaming plan and runs it; callers that execute the
// same question shape repeatedly should cache the compiled plan
// (internal/sql/plan) instead of re-compiling per call.
func Exec(db *sqldb.DB, sel *Select) ([]sqldb.RowID, error) {
	p, err := Compile(db, sel)
	if err != nil {
		return nil, err
	}
	return p.Run(db, sel)
}

// EvalExpr evaluates a WHERE expression directly against tbl and
// returns the matching row ids in ascending order, through the
// streaming executor.
func EvalExpr(db *sqldb.DB, tbl *sqldb.Table, e Expr) ([]sqldb.RowID, error) {
	sel := &Select{Table: tbl.Name(), Where: e}
	p, err := Compile(db, sel)
	if err != nil {
		return nil, err
	}
	return p.Run(db, sel)
}

// Plan is a compiled execution strategy for one SELECT shape. It is
// immutable after Compile and safe for concurrent Run calls.
type Plan struct {
	table   string
	orderBy string
	root    *planNode // nil when the statement has no WHERE
}

type nodeKind int

const (
	nkLeaf nodeKind = iota // Compare / Between
	nkAnd                  // streamed conjunction
	nkOr                   // materialize-and-union
	nkNot                  // materialize-and-complement
)

type leafKind int

const (
	lkEq leafKind = iota
	lkRange
	lkBetween
)

// planNode annotates one node of the expression tree.
type planNode struct {
	kind     nodeKind
	children []*planNode

	// Leaf annotations.
	leaf     leafKind
	col      string
	op       BinaryOp // Compare leaves
	drivable bool     // usable as a conjunction's driving scan
	indexed  bool     // the schema gives col an index that serves this leaf
	predOK   bool     // subtree convertible to a residual sqldb.Pred
	access   string   // human-readable access path (EXPLAIN)

	// Conjunction annotations.
	driving int // index of the driving child; -1 = eager intersection
}

// Compile analyzes sel against db's schema and returns a reusable
// Plan. All validation (unknown table or column, non-numeric range
// literal, unknown ORDER BY column) happens here, up front.
func Compile(db *sqldb.DB, sel *Select) (*Plan, error) {
	tbl, err := resolveTable(db, sel.Table)
	if err != nil {
		return nil, err
	}
	p := &Plan{table: sel.Table, orderBy: sel.OrderBy}
	if sel.Where != nil {
		p.root, err = compileNode(tbl, sel.Where)
		if err != nil {
			return nil, err
		}
	}
	if sel.OrderBy != "" && tbl.ColumnIndex(sel.OrderBy) < 0 {
		return nil, fmt.Errorf("sql: unknown ORDER BY column %q", sel.OrderBy)
	}
	return p, nil
}

func compileNode(tbl *sqldb.Table, e Expr) (*planNode, error) {
	switch x := e.(type) {
	case *Compare:
		if tbl.ColumnIndex(x.Column) < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", x.Column)
		}
		n := &planNode{kind: nkLeaf, col: x.Column, op: x.Op, predOK: true}
		switch x.Op {
		case OpEq:
			n.leaf = lkEq
			n.drivable = true
			n.indexed, n.access = equalAccess(tbl, x.Column)
		case OpLt, OpLe, OpGt, OpGe:
			// The one literal property Compile may look at is its type.
			if !x.Value.IsNumber() {
				return nil, fmt.Errorf("sql: %s requires a numeric literal on column %q", x.Op, x.Column)
			}
			n.leaf = lkRange
			n.drivable = true
			n.indexed, n.access = rangeAccess(tbl, x.Column)
		default:
			return nil, fmt.Errorf("sql: unsupported operator %q", x.Op)
		}
		return n, nil
	case *Between:
		if tbl.ColumnIndex(x.Column) < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", x.Column)
		}
		n := &planNode{kind: nkLeaf, leaf: lkBetween, col: x.Column, predOK: true, drivable: true}
		n.indexed, n.access = rangeAccess(tbl, x.Column)
		return n, nil
	case *And:
		n := &planNode{kind: nkAnd, driving: -1}
		for _, op := range x.Operands {
			c, err := compileNode(tbl, op)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, c)
		}
		// Sec. 4.3's rule, read off the statement: drive the first
		// operand an index serves (BuildSelect emits Type I, then II,
		// then III), else the first drivable leaf; everything else
		// becomes a residual (predicate or membership set). No drivable
		// leaf — all operands negated or composite — falls back to the
		// eager ordered intersection, which is trivially bit-identical.
		for i, c := range n.children {
			if !c.drivable {
				continue
			}
			if c.indexed {
				n.driving = i
				break
			}
			if n.driving < 0 {
				n.driving = i
			}
		}
		return n, nil
	case *Or:
		n := &planNode{kind: nkOr}
		for _, op := range x.Operands {
			c, err := compileNode(tbl, op)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, c)
		}
		return n, nil
	case *Not:
		c, err := compileNode(tbl, x.Operand)
		if err != nil {
			return nil, err
		}
		return &planNode{kind: nkNot, children: []*planNode{c}, predOK: c.predOK}, nil
	}
	return nil, fmt.Errorf("sql: unsupported expression node %T", e)
}

// resolveTable looks a table reference up by name, then by domain
// name (so the generated SQL may reference either).
func resolveTable(db *sqldb.DB, name string) (*sqldb.Table, error) {
	tbl, ok := db.Table(name)
	if !ok {
		tbl, ok = db.TableForDomain(name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", name)
		}
	}
	return tbl, nil
}

func attrType(tbl *sqldb.Table, col string) schema.AttrType {
	a, ok := tbl.Schema().Attr(col)
	if !ok {
		return schema.TypeII
	}
	return a.Type
}

// equalAccess names the access path of an equality on col and reports
// whether an index serves it: Type I and II columns are hashed, Type
// III columns are scanned.
func equalAccess(tbl *sqldb.Table, col string) (indexed bool, access string) {
	switch attrType(tbl, col) {
	case schema.TypeI:
		return true, "primary hash index lookup (Type I)"
	case schema.TypeII:
		return true, "secondary hash index lookup (Type II)"
	}
	return false, "scan with equality verify"
}

// rangeAccess is equalAccess for a range or BETWEEN: only Type III
// columns carry an ordered index.
func rangeAccess(tbl *sqldb.Table, col string) (indexed bool, access string) {
	if attrType(tbl, col) == schema.TypeIII {
		return true, "ordered index range scan (Type III)"
	}
	return false, "scan with range verify"
}

// Run executes the plan against the concrete Select, re-binding the
// statement's literals into the compiled shape. A Select whose shape
// does not match the plan (different tree structure, columns or
// operators) is recompiled on the spot — a mismatch can never produce
// wrong answers, only a wasted compile.
func (p *Plan) Run(db *sqldb.DB, sel *Select) ([]sqldb.RowID, error) {
	// LIMIT is pushed into the scan only when no ORDER BY will
	// reshuffle the stream afterwards.
	limit := 0
	if sel.OrderBy == "" {
		limit = sel.Limit
	}
	tbl, ids, err := p.match(db, sel, limit)
	if err != nil {
		return nil, err
	}
	if sel.OrderBy != "" {
		if tbl.ColumnIndex(sel.OrderBy) < 0 {
			return nil, fmt.Errorf("sql: unknown ORDER BY column %q", sel.OrderBy)
		}
		ids = tbl.SortByColumn(ids, sel.OrderBy, sel.Desc)
	}
	if sel.Limit > 0 && len(ids) > sel.Limit {
		ids = ids[:sel.Limit]
	}
	return ids, nil
}

// Match executes only the plan's WHERE against the concrete Select:
// it returns every matching row id in ascending order, ignoring the
// statement's ORDER BY and LIMIT. A superlative question runs the
// cached plan of its own ORDER BY shape through Match and takes the
// extreme run from the ascending set (sqldb.Table.AppendExtremeRun)
// instead of sorting every match. Shape mismatches recompile as in
// Run.
func (p *Plan) Match(db *sqldb.DB, sel *Select) ([]sqldb.RowID, error) {
	_, ids, err := p.match(db, sel, 0)
	return ids, err
}

// match evaluates the WHERE of sel under p (recompiled when sel does
// not fit), pushing limit > 0 into the scan, and returns the table
// with the ascending matching ids.
func (p *Plan) match(db *sqldb.DB, sel *Select, limit int) (*sqldb.Table, []sqldb.RowID, error) {
	tbl, err := resolveTable(db, sel.Table)
	if err != nil {
		return nil, nil, err
	}
	if !p.fits(sel) {
		fresh, err := Compile(db, sel)
		if err != nil {
			return nil, nil, err
		}
		p = fresh
	}
	if sel.Where == nil {
		return tbl, tbl.AllRowIDs(), nil
	}
	ids, err := execNode(tbl, sel.Where, p.root, limit)
	if err != nil {
		return nil, nil, err
	}
	return tbl, ids, nil
}

// fits reports whether sel has the shape this plan was compiled for.
func (p *Plan) fits(sel *Select) bool {
	return p.table == sel.Table && p.orderBy == sel.OrderBy && nodeFits(sel.Where, p.root)
}

func nodeFits(e Expr, n *planNode) bool {
	if e == nil || n == nil {
		return e == nil && n == nil
	}
	switch x := e.(type) {
	case *Compare:
		if n.kind != nkLeaf || n.col != x.Column || n.op != x.Op {
			return false
		}
		// Range leaves were validated for numeric literals at compile.
		if n.leaf == lkRange && !x.Value.IsNumber() {
			return false
		}
		return true
	case *Between:
		return n.kind == nkLeaf && n.leaf == lkBetween && n.col == x.Column
	case *And:
		if n.kind != nkAnd || len(n.children) != len(x.Operands) {
			return false
		}
		for i, op := range x.Operands {
			if !nodeFits(op, n.children[i]) {
				return false
			}
		}
		return true
	case *Or:
		if n.kind != nkOr || len(n.children) != len(x.Operands) {
			return false
		}
		for i, op := range x.Operands {
			if !nodeFits(op, n.children[i]) {
				return false
			}
		}
		return true
	case *Not:
		return n.kind == nkNot && len(n.children) == 1 && nodeFits(x.Operand, n.children[0])
	}
	return false
}

// execNode evaluates one annotated node to a sorted id set. limit > 0
// permits returning just the first limit ids of the ascending result
// (callers pass it only when truncation commutes with the node).
func execNode(tbl *sqldb.Table, e Expr, n *planNode, limit int) ([]sqldb.RowID, error) {
	switch n.kind {
	case nkLeaf:
		return execLeaf(tbl, e, limit)
	case nkNot:
		x := e.(*Not)
		inner, err := execNode(tbl, x.Operand, n.children[0], 0)
		if err != nil {
			return nil, err
		}
		return trim(complement(tbl, inner), limit), nil
	case nkOr:
		x := e.(*Or)
		var acc []sqldb.RowID
		for i, op := range x.Operands {
			ids, err := execNode(tbl, op, n.children[i], 0)
			if err != nil {
				return nil, err
			}
			acc = sqldb.UnionSorted(acc, ids)
		}
		return trim(acc, limit), nil
	case nkAnd:
		return execAnd(tbl, e.(*And), n, limit)
	}
	return nil, fmt.Errorf("sql: unsupported expression node %T", e)
}

// execAnd streams a conjunction: scan the driving leaf's rows and
// check every other conjunct per row (residual predicates under one
// table lock, composite conjuncts as sorted-set membership). The
// result set equals the eager intersection of all operand sets; the
// stream just never materializes the non-driving postings.
func execAnd(tbl *sqldb.Table, x *And, n *planNode, limit int) ([]sqldb.RowID, error) {
	if len(x.Operands) == 0 || n.driving < 0 {
		// Eager fallback: ordered intersection with short-circuit,
		// exactly the legacy evaluator.
		var acc []sqldb.RowID
		for i, op := range x.Operands {
			ids, err := execNode(tbl, op, n.children[i], 0)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				acc = ids
			} else {
				acc = sqldb.IntersectSorted(acc, ids)
			}
			if len(acc) == 0 {
				return nil, nil
			}
		}
		return trim(acc, limit), nil
	}
	var preds []sqldb.Pred
	var sets [][]sqldb.RowID
	for i, op := range x.Operands {
		if i == n.driving {
			continue
		}
		if n.children[i].predOK {
			if pr, ok := residualPred(op); ok {
				preds = append(preds, pr)
				continue
			}
		}
		ids, err := execNode(tbl, op, n.children[i], 0)
		if err != nil {
			return nil, err
		}
		if len(ids) == 0 {
			return nil, nil
		}
		sets = append(sets, ids)
	}
	buf := idBufs.Get().(*[]sqldb.RowID)
	ids, ascending := drivingIDs(tbl, x.Operands[n.driving], *buf)
	effLimit := limit
	if !ascending {
		effLimit = 0
	}
	out := tbl.FilterMatch(ids, preds, sets, effLimit)
	putIDBuf(buf, ids)
	if len(out) == 0 {
		return nil, nil
	}
	if !ascending {
		slices.Sort(out)
		out = trim(out, limit)
	}
	return out, nil
}

// drivingIDs appends the rows of a drivable leaf to dst and reports
// whether they are in ascending RowID order (range scans yield value
// order and need a re-sort after filtering). Every slice it returns is
// caller-owned: index postings are copied under the table's read lock.
func drivingIDs(tbl *sqldb.Table, e Expr, dst []sqldb.RowID) ([]sqldb.RowID, bool) {
	switch x := e.(type) {
	case *Compare:
		switch x.Op {
		case OpEq:
			return tbl.AppendEqual(dst, x.Column, x.Value), true
		case OpLt:
			return tbl.AppendRange(dst, x.Column, math.Inf(-1), x.Value.Num(), false, false), false
		case OpLe:
			return tbl.AppendRange(dst, x.Column, math.Inf(-1), x.Value.Num(), false, true), false
		case OpGt:
			return tbl.AppendRange(dst, x.Column, x.Value.Num(), math.Inf(1), false, false), false
		case OpGe:
			return tbl.AppendRange(dst, x.Column, x.Value.Num(), math.Inf(1), true, false), false
		}
	case *Between:
		return tbl.AppendRange(dst, x.Column, x.Lo, x.Hi, true, true), false
	}
	// Unreachable for leaves the planner marks drivable; scan everything.
	return tbl.AppendLiveIDs(dst), true
}

// idBufs pools the id buffers driving scans copy their postings into,
// so a streamed conjunction or relaxation tally allocates nothing that
// scales with posting size. Buffers hold copies, never index-owned
// slices, and are returned only after the last read of their ids.
var idBufs = sync.Pool{New: func() any { return new([]sqldb.RowID) }}

// maxPooledIDs bounds the buffers kept for reuse (512 KiB of ids), so
// one whole-table scan over a huge table does not stay pinned.
const maxPooledIDs = 1 << 16

// putIDBuf returns a buffer taken from idBufs to the pool, keeping the
// backing array of ids (buf's contents after appends) for the next
// scan.
func putIDBuf(buf *[]sqldb.RowID, ids []sqldb.RowID) {
	if cap(ids) > maxPooledIDs {
		return
	}
	*buf = ids[:0]
	idBufs.Put(buf)
}

// execLeaf evaluates one standalone leaf, bit-identical to the eager
// evaluator's leaf cases.
func execLeaf(tbl *sqldb.Table, e Expr, limit int) ([]sqldb.RowID, error) {
	switch x := e.(type) {
	case *Compare:
		switch x.Op {
		case OpEq:
			return trim(tbl.LookupEqual(x.Column, x.Value), limit), nil
		case OpLt, OpLe, OpGt, OpGe:
			if !x.Value.IsNumber() {
				return nil, fmt.Errorf("sql: %s requires a numeric literal on column %q", x.Op, x.Column)
			}
			v := x.Value.Num()
			switch x.Op {
			case OpLt:
				return trim(tbl.LookupRange(x.Column, math.Inf(-1), v, false, false), limit), nil
			case OpLe:
				return trim(tbl.LookupRange(x.Column, math.Inf(-1), v, false, true), limit), nil
			case OpGt:
				return trim(tbl.LookupRange(x.Column, v, math.Inf(1), false, false), limit), nil
			default: // OpGe
				return trim(tbl.LookupRange(x.Column, v, math.Inf(1), true, false), limit), nil
			}
		}
		return nil, fmt.Errorf("sql: unsupported operator %q", x.Op)
	case *Between:
		return trim(tbl.LookupRange(x.Column, x.Lo, x.Hi, true, true), limit), nil
	}
	return nil, fmt.Errorf("sql: unsupported expression node %T", e)
}

// residualPred converts a WHERE leaf (possibly NOT-wrapped) into a
// per-row residual predicate with exactly the leaf's set semantics.
func residualPred(e Expr) (sqldb.Pred, bool) {
	switch x := e.(type) {
	case *Compare:
		switch x.Op {
		case OpEq:
			return sqldb.NewEqualPred(x.Column, x.Value), true
		case OpLt, OpLe, OpGt, OpGe:
			if !x.Value.IsNumber() {
				return sqldb.Pred{}, false
			}
			v := x.Value.Num()
			switch x.Op {
			case OpLt:
				return sqldb.NewRangePred(x.Column, math.Inf(-1), v, false, false), true
			case OpLe:
				return sqldb.NewRangePred(x.Column, math.Inf(-1), v, false, true), true
			case OpGt:
				return sqldb.NewRangePred(x.Column, v, math.Inf(1), false, false), true
			default:
				return sqldb.NewRangePred(x.Column, v, math.Inf(1), true, false), true
			}
		}
	case *Between:
		return sqldb.NewRangePred(x.Column, x.Lo, x.Hi, true, true), true
	case *Not:
		p, ok := residualPred(x.Operand)
		if !ok {
			return sqldb.Pred{}, false
		}
		return p.Negated(), true
	}
	return sqldb.Pred{}, false
}

// complement returns all live rows of tbl not present in ids (ids
// must be sorted ascending). Tombstoned rows are never part of the
// complement: the universe is the table's live row set.
func complement(tbl *sqldb.Table, ids []sqldb.RowID) []sqldb.RowID {
	all := tbl.AllRowIDs()
	n := len(all) - len(ids)
	if n < 0 {
		n = 0
	}
	out := make([]sqldb.RowID, 0, n)
	j := 0
	for _, id := range all {
		for j < len(ids) && ids[j] < id {
			j++
		}
		if j < len(ids) && ids[j] == id {
			continue
		}
		out = append(out, id)
	}
	return out
}

func trim(ids []sqldb.RowID, limit int) []sqldb.RowID {
	if limit > 0 && len(ids) > limit {
		return ids[:limit]
	}
	return ids
}

// ForEachMatch streams every row id matching e against tbl to fn,
// without materializing a result set. Ids arrive in no particular
// order and MAY repeat across the branches of an OR; consumers
// needing set semantics must deduplicate (the relaxation tally does,
// with its per-condition mark array). A leaf's rows are copied into a
// pooled buffer under the table's read lock and fn runs after the lock
// is released, so fn may call back into the table. Negations and
// composite nodes fall back to materialization. It returns the same
// errors the executor would (unknown column, non-numeric range
// literal).
func ForEachMatch(db *sqldb.DB, tbl *sqldb.Table, e Expr, fn func(sqldb.RowID)) error {
	switch x := e.(type) {
	case *Compare:
		if tbl.ColumnIndex(x.Column) < 0 {
			return fmt.Errorf("sql: unknown column %q", x.Column)
		}
		switch x.Op {
		case OpEq:
		case OpLt, OpLe, OpGt, OpGe:
			if !x.Value.IsNumber() {
				return fmt.Errorf("sql: %s requires a numeric literal on column %q", x.Op, x.Column)
			}
		default:
			return fmt.Errorf("sql: unsupported operator %q", x.Op)
		}
	case *Between:
		if tbl.ColumnIndex(x.Column) < 0 {
			return fmt.Errorf("sql: unknown column %q", x.Column)
		}
	case *Or:
		for _, op := range x.Operands {
			if err := ForEachMatch(db, tbl, op, fn); err != nil {
				return err
			}
		}
		return nil
	case *Not:
		inner, err := EvalExpr(db, tbl, x.Operand)
		if err != nil {
			return err
		}
		for _, id := range complement(tbl, inner) {
			fn(id)
		}
		return nil
	default:
		ids, err := EvalExpr(db, tbl, e)
		if err != nil {
			return err
		}
		for _, id := range ids {
			fn(id)
		}
		return nil
	}
	// A validated =, range or BETWEEN leaf.
	buf := idBufs.Get().(*[]sqldb.RowID)
	ids, _ := drivingIDs(tbl, e, *buf)
	for _, id := range ids {
		fn(id)
	}
	putIDBuf(buf, ids)
	return nil
}
