package sqldb

import (
	"math"
	"slices"
)

// This file adds the access layer the streaming query executor
// (internal/sql) drives: a driving scan over row ids, filtered by
// galloping searches of hash postings and by residual predicates
// evaluated per row (IntersectMatch).
//
// Ownership rule: no index-owned slice is ever read outside a view.
// Delete edits posting lists in place, so every scan copies the ids it
// needs into a caller-owned buffer the caller may pool and reuse
// (View.AppendEqual, AppendRange, AppendLiveIDs, AppendLiveExcept).
// IntersectMatch searches postings in place, inside the view, and
// copies nothing. Every read of one View sees the same version of the
// table, so the ids a scan copies, the postings IntersectMatch
// searches and the rows it or Row then reads agree;
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
	c := &v.t.cols[i]
	g, off := v.at(id)
	switch p.Kind {
	case PredEqual:
		switch {
		case c.typeIII:
			// On a Type III column the ordered index agrees with
			// Equal for a number, and a string is scanned with Equal.
			match = c.cell(g, off).Equal(p.Value)
		case p.numeric:
			// A hash-indexed column: the index's key equality, under
			// which '2', '2.0' and 2 are one value.
			e := c.entry(g.codes[c.slot][off])
			match = e.numeric && sameNumKey(e.num, p.num)
		default:
			// A non-numeric literal keys its own text, which is what
			// Equal compares.
			match = c.entry(g.codes[c.slot][off]).v.Equal(p.Value)
		}
	case PredRange:
		n, isNum := c.num(g, off)
		if isNum {
			okLo := n > p.Lo || (p.IncLo && n == p.Lo)
			okHi := n < p.Hi || (p.IncHi && n == p.Hi)
			match = okLo && okHi
		}
	}
	return match != p.Negate
}

// IntersectMatch keeps, in place and in order, the ids that are live,
// lie in the hash posting of every equality in eqs and satisfy every
// residual predicate in preds, and returns that prefix of ids. Each
// entry of eqs must be an equality (NewEqualPred, not negated) on a
// hash-indexed column, and when eqs is not empty, ids must ascend.
// Each predicate it evaluates on a row is one residual check, counted
// as one cell read.
//
// An equality on a hash-indexed column reads no row: its posting holds
// exactly the rows its residual would keep (the index's key equality,
// under which '2', '2.0' and 2 are one value). Each posting has a
// forward cursor, and each id gallops it (gallop) to the first entry
// not below the id, so testing a run of ids costs at most a walk of
// the posting and usually far less. Each id tested against a posting
// is one sorted access; once a posting is exhausted no later id can
// match, and the filter stops. limit > 0 stops the postings and the
// residuals together after limit survivors. Nothing is copied, and
// nothing is allocated for up to eight equalities.
func (v View) IntersectMatch(ids []RowID, eqs, preds []Pred, limit int) []RowID {
	var buf [8][]RowID
	postings := buf[:0]
	for i := range eqs {
		p := &eqs[i]
		ci, ok := v.t.colIdx[p.Col]
		if !ok || v.t.hash[ci] == nil || p.Kind != PredEqual || p.Negate {
			panic("sqldb: IntersectMatch needs equalities on hash-indexed columns, got one on " + p.Col)
		}
		postings = append(postings, v.t.hash[ci].lookup(p.Value))
	}
	out := ids[:0]
	probes, checks := 0, 0
scan:
	for _, id := range ids {
		if !v.alive(id) {
			continue
		}
		// Each posting's cursor is the part of it not yet passed.
		for i, p := range postings {
			probes++
			p = p[gallop(p, id):]
			postings[i] = p
			if len(p) == 0 {
				break scan
			}
			if p[0] != id {
				continue scan
			}
		}
		for i := range preds {
			checks++
			if !v.match(id, &preds[i]) {
				continue scan
			}
		}
		out = append(out, id)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	v.w.AddPostings(probes)
	v.w.AddCells(checks)
	return out
}

// gallop returns the index of the first entry of the ascending
// posting p that is not below id (len(p) when there is none). It
// doubles a step from the front until an entry reaches id, then
// binary-searches the last step: O(log d) for an answer d entries in,
// so a cursor moved forward id by id pays for the distance it moves,
// not for the posting's length (exponential search, as a leapfrog
// intersection of sorted lists advances its iterators).
func gallop(p []RowID, id RowID) int {
	if len(p) == 0 || p[0] >= id {
		return 0
	}
	// Invariant: p[lo] < id.
	lo, hi := 0, 1
	for hi < len(p) && p[hi] < id {
		lo, hi = hi, 2*hi
	}
	hi = min(hi, len(p))
	i, _ := slices.BinarySearch(p[lo+1:hi], id)
	return lo + 1 + i
}

// Open range bounds for callers building range predicates without
// importing math.
var (
	// NegInf is the open lower bound.
	NegInf = math.Inf(-1)
	// PosInf is the open upper bound.
	PosInf = math.Inf(1)
)
