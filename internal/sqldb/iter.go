package sqldb

import (
	"math"

	"repro/internal/schema"
)

// This file adds the access layer the streaming query executor
// (internal/sql) drives: a driving scan over row ids plus residual
// predicates evaluated per row.
//
// Ownership rule: no index-owned slice is ever read outside a view.
// Delete edits posting lists in place, so every scan copies the ids it
// needs into a caller-owned buffer the caller may pool and reuse
// (View.AppendEqual, AppendRange, AppendLiveIDs, AppendLiveExcept).
// Every read of one View sees the same version of the table, so the
// ids a scan copies and the rows FilterMatch or Row then reads agree;
// once the view closes, the copy is only a list of ids.

// PredKind enumerates residual predicate forms.
type PredKind int

// Residual predicate kinds.
const (
	// PredEqual matches the rows AppendEqual appends for Value.
	PredEqual PredKind = iota
	// PredRange matches rows whose column is numeric and within
	// [Lo, Hi] under the stated inclusivity.
	PredRange
	// PredAny matches rows that match any of Sub: an OR of leaves,
	// such as a multi-valued categorical condition.
	PredAny
	// PredAll matches rows that match every one of Sub.
	PredAll
)

// Pred is one residual predicate: a WHERE node evaluated per row
// against the stored values instead of through an index. A leaf's
// semantics are exactly those of the corresponding scan (AppendEqual /
// AppendRange), and PredAny and PredAll compose them as OR and AND do,
// so a conjunct pushed down as a residual filter selects the same rows
// it would have selected as a posting list, whichever operand of a
// conjunction drives the scan. Negate inverts the match over live
// rows, which is NOT's complement. Build predicates with NewEqualPred,
// NewRangePred, NewAnyPred and NewAllPred.
type Pred struct {
	Kind         PredKind
	Col          string
	Value        Value   // PredEqual
	Lo, Hi       float64 // PredRange
	IncLo, IncHi bool    // PredRange
	Sub          []Pred  // PredAny, PredAll
	Negate       bool

	// num and numeric classify an equality literal once: only a
	// numeric one (a number or a numeric string) can tell the hash
	// index's key equality apart from Value.Equal.
	num     float64
	numeric bool
}

// NewEqualPred builds an equality residual.
func NewEqualPred(col string, v Value) Pred {
	n, ok := v.tryNum()
	return Pred{Kind: PredEqual, Col: col, Value: v, num: n, numeric: ok}
}

// NewRangePred builds a numeric range residual. Use math.Inf for open
// ends.
func NewRangePred(col string, lo, hi float64, incLo, incHi bool) Pred {
	return Pred{Kind: PredRange, Col: col, Lo: lo, Hi: hi, IncLo: incLo, IncHi: incHi}
}

// NewAnyPred builds the residual of an OR over sub. The predicate
// keeps sub; the caller must not change it while the predicate is in
// use.
func NewAnyPred(sub []Pred) Pred { return Pred{Kind: PredAny, Sub: sub} }

// NewAllPred builds the residual of an AND over sub, keeping sub as
// NewAnyPred does.
func NewAllPred(sub []Pred) Pred { return Pred{Kind: PredAll, Sub: sub} }

// Negated returns a copy of p with the match inverted.
func (p Pred) Negated() Pred {
	p.Negate = !p.Negate
	return p
}

// match evaluates one predicate on live row id.
func (v View) match(id RowID, p *Pred) bool {
	var match bool
	switch p.Kind {
	case PredAny:
		for i := range p.Sub {
			if v.match(id, &p.Sub[i]) {
				match = true
				break
			}
		}
		return match != p.Negate
	case PredAll:
		match = true
		for i := range p.Sub {
			if !v.match(id, &p.Sub[i]) {
				match = false
				break
			}
		}
		return match != p.Negate
	}
	i, ok := v.t.colIdx[p.Col]
	if !ok {
		return false
	}
	val := v.t.rows[id].Values[i]
	switch p.Kind {
	case PredEqual:
		if p.numeric && v.t.schema.Attrs[i].Type != schema.TypeIII {
			// A hash-indexed column: the index's key equality, under
			// which '2', '2.0' and 2 are one value.
			n, isNum := val.tryNum()
			match = isNum && sameNumKey(n, p.num)
		} else {
			// A non-numeric literal keys its own text, which is what
			// Equal compares; on a Type III column the ordered index
			// agrees with Equal for a number and a string is scanned
			// with Equal.
			match = val.Equal(p.Value)
		}
	case PredRange:
		n, isNum := val.tryNum()
		if isNum {
			okLo := n > p.Lo || (p.IncLo && n == p.Lo)
			okHi := n < p.Hi || (p.IncHi && n == p.Hi)
			match = okLo && okHi
		}
	}
	return match != p.Negate
}

// FilterMatch keeps, in place and in the order of ids, the ids that
// are live and satisfy every residual predicate, and returns that
// prefix of ids. Each predicate it evaluates on a row is one residual
// check, counted as one cell read. It allocates nothing. limit > 0 stops after limit
// survivors (early termination for LIMIT pushdown); 0 means no limit.
func (v View) FilterMatch(ids []RowID, preds []Pred, limit int) []RowID {
	out := ids[:0]
	checks := 0
	for _, id := range ids {
		if !v.alive(id) {
			continue
		}
		pass := true
		for i := range preds {
			checks++
			if !v.match(id, &preds[i]) {
				pass = false
				break
			}
		}
		if !pass {
			continue
		}
		out = append(out, id)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	v.w.AddCells(checks)
	return out
}

// Open range bounds for callers building range predicates without
// importing math.
var (
	// NegInf is the open lower bound.
	NegInf = math.Inf(-1)
	// PosInf is the open upper bound.
	PosInf = math.Inf(1)
)
