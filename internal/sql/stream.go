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
// but not how each condition is evaluated. core.BuildSelect emits
// every conjunction in that order, so the planner reads the order off
// the statement and gives each conjunct one of three roles:
//
//   - the driver: the conjunction's first leaf that an index serves
//     (= on a hashed Type I/II column, = with a number or a range or
//     BETWEEN on an ordered Type III column), else its first leaf, else
//     the live rows. Its ids are copied into the run's buffer;
//   - intersect leaves: when the driver is an =, whose ids ascend,
//     every other = directly under the conjunction on a hashed Type
//     I/II column. Its posting holds exactly the rows its residual
//     would keep, so each driving id is tested by a galloping search of
//     the posting (sqldb.View.IntersectMatch) and no row is read for
//     it. Under a range driver, whose ids come in value order, these
//     leaves stay residuals;
//   - residuals: every other conjunct — a leaf, an OR of leaves, a NOT
//     of either, or any deeper node — is one per-row predicate
//     (sqldb.Pred) checked on the ids that pass the postings. A
//     residual selects exactly the rows its node's scan would.
//
// So the result does not depend on which operand drives, and
// sql.Explain prints the three roles.
//
// Run appends every id it produces into one pooled buffer (idBufs): a
// leaf appends its posting, an OR appends each branch and then sorts
// and deduplicates the lot, a NOT walks the live slots minus its
// inner ids (taken into a second pooled buffer), and a conjunction
// appends its driving rows and filters them in place, postings first,
// then residuals. A LIMIT with no ORDER BY is pushed into the filter,
// so the postings and the residuals stop together at the LIMIT-th
// survivor, and into every branch of an OR: the first LIMIT ids of a
// union lie among each branch's own first LIMIT ids, so an OR sorts
// at most LIMIT ids from each branch that is a conjunction. The one
// allocation that
// remains is the answer: an exact-size copy of at most LIMIT ids, so a
// run allocates nothing that scales with a posting.
//
// A Plan annotates the *shape* of the expression tree (node kinds,
// columns, operators) with these roles, and Run re-binds the literals
// of the concrete Select by walking the two trees in lockstep. Being a
// pure function of (schema, shape), a plan is cacheable across the
// questions that share a tagged shape and stays valid however the
// corpus changes (internal/sql/plan.Cache); a Select whose shape does
// not match the plan is defensively recompiled, so a mismatched plan
// can cost time but never correctness.
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
// It compiles a streaming plan — each conjunction's driver, intersect
// leaves and residuals — and runs it; callers that execute the same
// question shape repeatedly should cache the compiled plan
// (internal/sql/plan) instead of re-compiling per call.
func Exec(db *sqldb.DB, sel *Select) ([]sqldb.RowID, error) {
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
	nkAnd                  // driving leaf + residuals, filtered in place
	nkOr                   // branches appended, sorted, deduplicated
	nkNot                  // live slots minus the inner ids
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
	leaf    leafKind
	col     string
	op      BinaryOp // Compare leaves
	indexed bool     // the schema gives col an index that serves this leaf
	access  string   // human-readable access path (EXPLAIN)
	// intersect marks a conjunct its conjunction applies by searching
	// the leaf's hash posting instead of reading rows (intersects).
	intersect bool

	// Conjunction annotations.
	driving int // index of the driving leaf; -1 = the live rows drive
}

// child returns n's i-th child annotation, or nil for an unannotated
// node (ForEachMatch runs expressions without compiling them).
func (n *planNode) child(i int) *planNode {
	if n == nil {
		return nil
	}
	return n.children[i]
}

// intersects reports whether operand i of the conjunction of ops that
// n annotates is an intersect leaf: as compiled, or, for an
// unannotated node, as Compile would decide.
func (n *planNode) intersects(sch *schema.Schema, ops []Expr, driving, i int) bool {
	if n == nil {
		return intersects(sch, ops, driving, i)
	}
	return n.children[i].intersect
}

// Compile analyzes sel against db's schema and returns a reusable
// Plan. All validation (unknown table or column, non-numeric range
// literal, unknown ORDER BY column) happens here, up front.
func Compile(db *sqldb.DB, sel *Select) (*Plan, error) {
	tbl, err := resolveTable(db, sel.Table)
	if err != nil {
		return nil, err
	}
	return compile(tbl.Schema(), sel)
}

// compile is Compile against the schema of sel's table: a plan needs
// nothing else.
func compile(sch *schema.Schema, sel *Select) (*Plan, error) {
	p := &Plan{table: sel.Table, orderBy: sel.OrderBy}
	if sel.Where != nil {
		var err error
		if p.root, err = compileNode(sch, sel.Where); err != nil {
			return nil, err
		}
	}
	if sel.OrderBy != "" && !hasColumn(sch, sel.OrderBy) {
		return nil, fmt.Errorf("sql: unknown ORDER BY column %q", sel.OrderBy)
	}
	return p, nil
}

func compileNode(sch *schema.Schema, e Expr) (*planNode, error) {
	var kind nodeKind
	var ops []Expr
	switch x := e.(type) {
	case *Compare, *Between:
		if err := checkLeaf(sch, e); err != nil {
			return nil, err
		}
		n := &planNode{kind: nkLeaf}
		if c, ok := x.(*Compare); ok {
			n.col, n.op = c.Column, c.Op
			if c.Op == OpEq {
				n.indexed, n.access = equalAccess(sch, c.Column)
			} else {
				n.leaf = lkRange
				n.indexed, n.access = rangeAccess(sch, c.Column)
			}
		} else {
			n.leaf, n.col = lkBetween, x.(*Between).Column
			n.indexed, n.access = rangeAccess(sch, n.col)
		}
		return n, nil
	case *And:
		kind, ops = nkAnd, x.Operands
	case *Or:
		kind, ops = nkOr, x.Operands
	case *Not:
		kind, ops = nkNot, []Expr{x.Operand}
	default:
		return nil, fmt.Errorf("sql: unsupported expression node %T", e)
	}
	n := &planNode{kind: kind, driving: -1}
	for _, op := range ops {
		c, err := compileNode(sch, op)
		if err != nil {
			return nil, err
		}
		n.children = append(n.children, c)
	}
	if kind == nkAnd {
		n.driving = drivingOperand(sch, ops)
		for i, c := range n.children {
			c.intersect = intersects(sch, ops, n.driving, i)
		}
	}
	return n, nil
}

// intersects reports whether operand i of a conjunction driven by its
// operand driving is an intersect leaf: an = on a hash-indexed Type
// I/II column, in a conjunction whose driver is an = and so yields
// ascending ids. Such a leaf's posting holds exactly the rows its
// residual would keep, so the conjunction tests each driving id
// against the posting (sqldb.View.IntersectMatch) and reads no row for
// it. Under a range driver, whose ids come in value order, it stays a
// residual.
func intersects(sch *schema.Schema, ops []Expr, driving, i int) bool {
	if driving < 0 || i == driving {
		return false
	}
	d, ok := ops[driving].(*Compare)
	if !ok || d.Op != OpEq {
		return false
	}
	c, ok := ops[i].(*Compare)
	return ok && c.Op == OpEq && attrType(sch, c.Column) != schema.TypeIII
}

// drivingOperand is Sec. 4.3's rule, read off the statement: a
// conjunction is driven by its first operand that is an index-served
// leaf (BuildSelect emits Type I, then II, then III), else by its first
// leaf, else (-1) by the live rows. Everything else is a residual.
func drivingOperand(sch *schema.Schema, ops []Expr) int {
	first := -1
	for i, op := range ops {
		var indexed bool
		switch x := op.(type) {
		case *Compare:
			if x.Op == OpEq {
				indexed, _ = equalAccess(sch, x.Column)
			} else {
				indexed, _ = rangeAccess(sch, x.Column)
			}
		case *Between:
			indexed, _ = rangeAccess(sch, x.Column)
		default:
			continue
		}
		if indexed {
			return i
		}
		if first < 0 {
			first = i
		}
	}
	return first
}

// checkLeaf validates a Compare or Between leaf against sch: a known
// column, a supported operator, and a numeric literal for a range.
func checkLeaf(sch *schema.Schema, e Expr) error {
	switch x := e.(type) {
	case *Compare:
		if !hasColumn(sch, x.Column) {
			return fmt.Errorf("sql: unknown column %q", x.Column)
		}
		switch x.Op {
		case OpEq:
		case OpLt, OpLe, OpGt, OpGe:
			// The one literal property Compile may look at is its type.
			if !x.Value.IsNumber() {
				return fmt.Errorf("sql: %s requires a numeric literal on column %q", x.Op, x.Column)
			}
		default:
			return fmt.Errorf("sql: unsupported operator %q", x.Op)
		}
		return nil
	case *Between:
		if !hasColumn(sch, x.Column) {
			return fmt.Errorf("sql: unknown column %q", x.Column)
		}
		return nil
	}
	return fmt.Errorf("sql: unsupported expression node %T", e)
}

// checkNode validates a whole expression as Compile does, without
// building a plan.
func checkNode(sch *schema.Schema, e Expr) error {
	var ops []Expr
	switch x := e.(type) {
	case *And:
		ops = x.Operands
	case *Or:
		ops = x.Operands
	case *Not:
		return checkNode(sch, x.Operand)
	default:
		return checkLeaf(sch, e)
	}
	for _, op := range ops {
		if err := checkNode(sch, op); err != nil {
			return err
		}
	}
	return nil
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

func attrType(sch *schema.Schema, col string) schema.AttrType {
	a, ok := sch.Attr(col)
	if !ok {
		return schema.TypeII
	}
	return a.Type
}

func hasColumn(sch *schema.Schema, col string) bool {
	_, ok := sch.Attr(col)
	return ok
}

// equalAccess names the access path of an equality on col and reports
// whether an index serves it: Type I and II columns are hashed, and a
// Type III column's ordered index answers a number as a point lookup
// (a string literal there is scanned, see sqldb.View.AppendEqual).
func equalAccess(sch *schema.Schema, col string) (indexed bool, access string) {
	switch attrType(sch, col) {
	case schema.TypeI:
		return true, "primary hash index lookup (Type I)"
	case schema.TypeII:
		return true, "secondary hash index lookup (Type II)"
	}
	return true, "ordered index point lookup (Type III)"
}

// rangeAccess is equalAccess for a range or BETWEEN: only Type III
// columns carry an ordered index.
func rangeAccess(sch *schema.Schema, col string) (indexed bool, access string) {
	if attrType(sch, col) == schema.TypeIII {
		return true, "ordered index range scan (Type III)"
	}
	return false, "scan with range verify"
}

// Run executes the plan against the concrete Select in a read view of
// its own; see RunView.
func (p *Plan) Run(db *sqldb.DB, sel *Select) (ids []sqldb.RowID, err error) {
	tbl, err := resolveTable(db, sel.Table)
	if err != nil {
		return nil, err
	}
	tbl.View(func(v sqldb.View) { ids, err = p.RunView(v, sel) })
	return ids, err
}

// RunView executes the plan in v, a view of sel's table, re-binding
// the statement's literals into the compiled shape, and returns the
// matching row ids in result order (ascending RowID, then ORDER BY,
// then LIMIT) in a slice of their own. A Select whose shape does not
// match the plan (different tree structure, columns or operators) is
// recompiled on the spot — a mismatch can never produce wrong answers,
// only a wasted compile.
func (p *Plan) RunView(v sqldb.View, sel *Select) ([]sqldb.RowID, error) {
	// LIMIT is pushed into the scan only when no ORDER BY will
	// reshuffle the stream afterwards.
	limit := 0
	if sel.OrderBy == "" {
		limit = sel.Limit
	}
	buf, ids, err := p.match(v, sel, limit)
	if err != nil {
		return nil, err
	}
	if sel.OrderBy != "" {
		ids = v.SortByColumn(ids, sel.OrderBy, sel.Desc)
	}
	out := copyIDs(trim(ids, sel.Limit))
	putIDBuf(buf, ids)
	return out, nil
}

// ExtremeRun evaluates a superlative statement in v, a view of sel's
// table, as Sec. 4.3 orders it: the WHERE's matches, kept only where
// keep (when non-nil) says so, reduced to the rows whose numeric
// sel.OrderBy value is the minimum (the maximum when sel.Desc), in
// RowID order and capped at limit (0 = uncapped); sel.Limit is not
// applied. It also returns the extreme and whether any row had a
// numeric value (sqldb.View.AppendExtremeRun). The matches stay in the
// pooled buffer and only the run is copied out: no sort, and no copy
// of the whole match set. Shape mismatches recompile as in RunView.
func (p *Plan) ExtremeRun(v sqldb.View, sel *Select, keep func(sqldb.RowID) bool, limit int) ([]sqldb.RowID, float64, bool, error) {
	buf, ids, err := p.match(v, sel, 0)
	if err != nil {
		return nil, 0, false, err
	}
	if keep != nil {
		kept := ids[:0]
		for _, id := range ids {
			if keep(id) {
				kept = append(kept, id)
			}
		}
		ids = kept
	}
	run, extreme, found := v.AppendExtremeRun(ids[:0], ids, sel.OrderBy, sel.Desc, limit)
	out := copyIDs(run)
	putIDBuf(buf, ids)
	return out, extreme, found, nil
}

// match evaluates the WHERE of sel under p (recompiled when sel does
// not fit) in v into a buffer from idBufs, pushing limit > 0 into the
// scan. It returns the buffer and the ascending matching ids, which
// live in the buffer; the caller hands both to putIDBuf after its last
// read of the ids.
func (p *Plan) match(v sqldb.View, sel *Select, limit int) (*[]sqldb.RowID, []sqldb.RowID, error) {
	if !p.fits(sel) {
		fresh, err := compile(v.Schema(), sel)
		if err != nil {
			return nil, nil, err
		}
		p = fresh
	}
	buf := idBufs.Get().(*[]sqldb.RowID)
	ids := (*buf)[:0]
	if sel.Where == nil {
		ids = v.AppendLiveIDs(ids)
	} else {
		r := runs.Get().(*run)
		r.v = v
		ids = r.appendNode(ids, sel.Where, p.root, limit)
		r.v = sqldb.View{}
		runs.Put(r)
	}
	return buf, ids, nil
}

// fits reports whether sel has the shape this plan was compiled for.
func (p *Plan) fits(sel *Select) bool {
	return p.table == sel.Table && p.orderBy == sel.OrderBy && nodeFits(sel.Where, p.root)
}

func nodeFits(e Expr, n *planNode) bool {
	if e == nil || n == nil {
		return e == nil && n == nil
	}
	var ops []Expr
	switch x := e.(type) {
	case *Compare:
		if n.kind != nkLeaf || n.col != x.Column || n.op != x.Op {
			return false
		}
		// Range leaves were validated for numeric literals at compile.
		return n.leaf != lkRange || x.Value.IsNumber()
	case *Between:
		return n.kind == nkLeaf && n.leaf == lkBetween && n.col == x.Column
	case *And:
		if n.kind != nkAnd {
			return false
		}
		ops = x.Operands
	case *Or:
		if n.kind != nkOr {
			return false
		}
		ops = x.Operands
	case *Not:
		if n.kind != nkNot {
			return false
		}
		ops = []Expr{x.Operand}
	default:
		return false
	}
	if len(n.children) != len(ops) {
		return false
	}
	for i, op := range ops {
		if !nodeFits(op, n.children[i]) {
			return false
		}
	}
	return true
}

// run is one execution's scratch, reused across executions through
// runs: the view it reads, and the intersect leaves and residual
// predicates its conjunctions build, kept as stacks that each
// conjunction pops once its filter is done.
type run struct {
	v     sqldb.View
	eqs   []sqldb.Pred // the current conjunctions' intersect leaves
	preds []sqldb.Pred // the current conjunctions' residuals
	subs  []sqldb.Pred // the operands of any-of and all-of residuals
}

var runs = sync.Pool{New: func() any { return new(run) }}

// appendNode appends the ids of the rows matching e, which n annotates
// (nil when e was not compiled), to dst in ascending order without
// repeats, and returns the extended slice. limit > 0 lets it append
// only a subset that holds the first limit ids: a leaf keeps only
// them, a conjunction stops after them, and an OR passes limit into
// every branch, because each of the first limit ids of a union is
// among the first limit ids of the branch it comes from.
func (r *run) appendNode(dst []sqldb.RowID, e Expr, n *planNode, limit int) []sqldb.RowID {
	switch x := e.(type) {
	case *And:
		return r.appendAnd(dst, x, n, limit)
	case *Or:
		base := len(dst)
		for i, op := range x.Operands {
			dst = r.appendNode(dst, op, n.child(i), limit)
		}
		if len(x.Operands) > 1 {
			ids := dst[base:]
			slices.Sort(ids)
			dst = dst[:base+len(slices.Compact(ids))]
		}
		return dst
	case *Not:
		buf := idBufs.Get().(*[]sqldb.RowID)
		inner := r.appendNode((*buf)[:0], x.Operand, n.child(0), 0)
		dst = r.v.AppendLiveExcept(dst, inner)
		putIDBuf(buf, inner)
		return dst
	}
	base := len(dst)
	dst, ascending := drivingIDs(r.v, e, dst)
	if ascending {
		return dst[:base+len(trim(dst[base:], limit))]
	}
	return dst[:base+len(sortFirst(dst[base:], limit))]
}

// appendAnd streams a conjunction: it appends the driving leaf's rows
// (or every live row) to dst and filters them in place, first by the
// postings of its intersect leaves, then by every other conjunct as a
// residual predicate. The result equals the intersection of all
// operand sets; the non-driving conjuncts never produce ids at all.
func (r *run) appendAnd(dst []sqldb.RowID, x *And, n *planNode, limit int) []sqldb.RowID {
	if len(x.Operands) == 0 {
		return dst
	}
	sch := r.v.Schema()
	var driving int
	if n != nil {
		driving = n.driving
	} else {
		driving = drivingOperand(sch, x.Operands)
	}
	base := len(dst)
	ascending := true
	if driving >= 0 {
		dst, ascending = drivingIDs(r.v, x.Operands[driving], dst)
	} else {
		dst = r.v.AppendLiveIDs(dst)
	}
	neqs, npreds, nsubs := len(r.eqs), len(r.preds), len(r.subs)
	for i, op := range x.Operands {
		switch {
		case i == driving:
		case ascending && n.intersects(sch, x.Operands, driving, i):
			c := op.(*Compare)
			r.eqs = append(r.eqs, sqldb.NewEqualPred(c.Column, c.Value))
		default:
			p := r.residual(op)
			r.preds = append(r.preds, p)
		}
	}
	filterLimit := limit
	if !ascending {
		filterLimit = 0
	}
	kept := r.v.IntersectMatch(dst[base:], r.eqs[neqs:], r.preds[npreds:], filterLimit)
	r.eqs, r.preds, r.subs = r.eqs[:neqs], r.preds[:npreds], r.subs[:nsubs]
	dst = dst[:base+len(kept)]
	if !ascending {
		dst = dst[:base+len(sortFirst(dst[base:], limit))]
	}
	return dst
}

// residual converts a validated WHERE node into the per-row predicate
// with exactly its set semantics: a leaf's scan, NOT as negation, OR
// and AND as any-of and all-of over their operands.
func (r *run) residual(e Expr) sqldb.Pred {
	switch x := e.(type) {
	case *Compare:
		if x.Op == OpEq {
			return sqldb.NewEqualPred(x.Column, x.Value)
		}
		v := x.Value.Num()
		switch x.Op {
		case OpLt:
			return sqldb.NewRangePred(x.Column, math.Inf(-1), v, false, false)
		case OpLe:
			return sqldb.NewRangePred(x.Column, math.Inf(-1), v, false, true)
		case OpGt:
			return sqldb.NewRangePred(x.Column, v, math.Inf(1), false, false)
		default: // OpGe
			return sqldb.NewRangePred(x.Column, v, math.Inf(1), true, false)
		}
	case *Between:
		return sqldb.NewRangePred(x.Column, x.Lo, x.Hi, true, true)
	case *Not:
		return r.residual(x.Operand).Negated()
	case *Or:
		return sqldb.NewAnyPred(r.residuals(x.Operands))
	default: // *And, the one node kind left after validation
		return sqldb.NewAllPred(r.residuals(x.(*And).Operands))
	}
}

// residuals builds the residuals of ops side by side on the subs
// stack and returns them. A nested operand pushes its own operands
// above the reserved slots; if that moves the stack to a new array,
// the nested slices keep the old one, which nothing writes again.
func (r *run) residuals(ops []Expr) []sqldb.Pred {
	start, end := len(r.subs), len(r.subs)+len(ops)
	r.subs = slices.Grow(r.subs, len(ops))[:end]
	for i, op := range ops {
		p := r.residual(op)
		r.subs[start+i] = p
	}
	return r.subs[start:end:end]
}

// drivingIDs appends the rows of a leaf to dst and reports whether
// they are in ascending RowID order (range scans on an ordered index
// yield value order and need a re-sort). Every id it appends is a copy
// of an index posting.
func drivingIDs(v sqldb.View, e Expr, dst []sqldb.RowID) ([]sqldb.RowID, bool) {
	if x, ok := e.(*Between); ok {
		return v.AppendRange(dst, x.Column, x.Lo, x.Hi, true, true), false
	}
	x := e.(*Compare)
	if x.Op == OpEq {
		return v.AppendEqual(dst, x.Column, x.Value), true
	}
	n := x.Value.Num()
	switch x.Op {
	case OpLt:
		return v.AppendRange(dst, x.Column, math.Inf(-1), n, false, false), false
	case OpLe:
		return v.AppendRange(dst, x.Column, math.Inf(-1), n, false, true), false
	case OpGt:
		return v.AppendRange(dst, x.Column, n, math.Inf(1), false, false), false
	default: // OpGe
		return v.AppendRange(dst, x.Column, n, math.Inf(1), true, false), false
	}
}

// idBufs pools the id buffers every run appends into, so an execution
// allocates nothing that scales with posting size. Buffers hold
// copies, never index-owned slices, and are returned only after the
// last read of their ids.
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

// copyIDs returns an exact-size copy of ids that the caller owns, or
// nil when there are none.
func copyIDs(ids []sqldb.RowID) []sqldb.RowID {
	if len(ids) == 0 {
		return nil
	}
	return append(make([]sqldb.RowID, 0, len(ids)), ids...)
}

// sortFirst sorts ids in place and returns the first limit of them
// (all of them when limit <= 0). With a limit it sorts no more than
// that: each id is inserted into the sorted prefix of the smallest
// ones seen so far, and once the prefix is full most ids of a range
// scan (which come in value order, so in no id order) cost one
// comparison against its largest.
func sortFirst(ids []sqldb.RowID, limit int) []sqldb.RowID {
	if limit <= 0 || len(ids) <= limit {
		slices.Sort(ids)
		return ids
	}
	// ids[:k] holds the smallest ids read so far, in order. It never
	// reaches past the id just read, so the writes overwrite only ids
	// the loop has passed.
	k := 0
	for _, id := range ids {
		if k == limit {
			if id >= ids[k-1] {
				continue
			}
		} else {
			k++
		}
		i := k - 1
		for ; i > 0 && ids[i-1] > id; i-- {
			ids[i] = ids[i-1]
		}
		ids[i] = id
	}
	return ids[:k]
}

func trim(ids []sqldb.RowID, limit int) []sqldb.RowID {
	if limit > 0 && len(ids) > limit {
		return ids[:limit]
	}
	return ids
}

// ForEachMatch streams every row id matching e in v to fn, without
// materializing a result set. Ids arrive in no particular order and
// MAY repeat across the branches of a top-level OR; consumers needing
// set semantics must deduplicate (the relaxation tally does, with its
// per-condition mark array). The ids are appended into a pooled buffer
// by the drivers RunView uses — a leaf's scan without the re-sort a
// range would need, anything else through the same appendNode — and fn
// runs inside the caller's view, so every id is a row of the version
// the rest of the ask reads; fn must not call a Table method that
// takes the table's lock. It returns the same errors the executor
// would (unknown column, non-numeric range literal).
func ForEachMatch(v sqldb.View, e Expr, fn func(sqldb.RowID)) error {
	if x, ok := e.(*Or); ok {
		for _, op := range x.Operands {
			if err := ForEachMatch(v, op, fn); err != nil {
				return err
			}
		}
		return nil
	}
	if err := checkNode(v.Schema(), e); err != nil {
		return err
	}
	buf := idBufs.Get().(*[]sqldb.RowID)
	var ids []sqldb.RowID
	switch e.(type) {
	case *Compare, *Between:
		ids, _ = drivingIDs(v, e, (*buf)[:0])
	default:
		r := runs.Get().(*run)
		r.v = v
		ids = r.appendNode((*buf)[:0], e, nil, 0)
		r.v = sqldb.View{}
		runs.Put(r)
	}
	for _, id := range ids {
		fn(id)
	}
	putIDBuf(buf, ids)
	return nil
}
