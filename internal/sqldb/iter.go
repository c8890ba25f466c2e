package sqldb

import (
	"math"

	"repro/internal/schema"
)

// This file adds the access layer the streaming query executor
// (internal/sql) drives: a driving scan over row ids plus residual
// predicates evaluated per row.
//
// Ownership rule: no index-owned slice is ever read outside t.mu.
// Delete edits posting lists in place, so every scan copies the ids it
// needs while holding the table's read lock — into a fresh slice (the
// Lookup* methods) or into a caller-owned buffer the caller may pool
// and reuse (AppendEqual, AppendRange, AppendLiveIDs). Reading the
// copy therefore needs no lock, no caller callback ever runs under the
// lock, and a concurrent mutation never tears an in-flight scan; as
// with all multi-call read sequences on a Table, the copy reflects the
// table at scan time, not a transaction.

// PredKind enumerates residual predicate forms.
type PredKind int

// Residual predicate kinds.
const (
	// PredEqual matches the rows LookupEqual returns for Value.
	PredEqual PredKind = iota
	// PredRange matches rows whose column is numeric and within
	// [Lo, Hi] under the stated inclusivity.
	PredRange
)

// Pred is one residual predicate: a WHERE leaf evaluated per row
// against the stored value instead of through an index. Its semantics
// are exactly those of the corresponding lookup (LookupEqual /
// LookupRange), so a conjunct pushed down as a residual filter selects
// the same rows it would have selected as a materialized posting list,
// whichever operand of a conjunction drives the scan. Negate inverts
// the match over live rows, mirroring the complement the eager
// evaluator computes for NOT. Build predicates with NewEqualPred and
// NewRangePred.
type Pred struct {
	Kind         PredKind
	Col          string
	Value        Value   // PredEqual
	Lo, Hi       float64 // PredRange
	IncLo, IncHi bool    // PredRange
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

// Negated returns a copy of p with the match inverted.
func (p Pred) Negated() Pred {
	p.Negate = !p.Negate
	return p
}

// matchLocked evaluates one predicate; caller holds t.mu.
//
// cqads:requires-lock mu
func (t *Table) matchLocked(id RowID, p *Pred) bool {
	i, ok := t.colIdx[p.Col]
	if !ok {
		return false
	}
	v := t.rows[id].Values[i]
	var match bool
	switch p.Kind {
	case PredEqual:
		if p.numeric && t.schema.Attrs[i].Type != schema.TypeIII {
			// A hash-indexed column: the index's key equality, under
			// which '2', '2.0' and 2 are one value.
			n, isNum := v.tryNum()
			match = isNum && sameNumKey(n, p.num)
		} else {
			// A non-numeric literal keys its own text, which is what
			// Equal compares; a Type III column is scanned with Equal.
			match = v.Equal(p.Value)
		}
	case PredRange:
		n, isNum := v.tryNum()
		if isNum {
			okLo := n > p.Lo || (p.IncLo && n == p.Lo)
			okHi := n < p.Hi || (p.IncHi && n == p.Hi)
			match = okLo && okHi
		}
	}
	if p.Negate {
		return !match
	}
	return match
}

// FilterMatch returns, in the order of ids, the ids that are live,
// satisfy every residual predicate, and are present in every sorted
// membership set. The whole pass runs under one read lock, so a
// streamed conjunction pays a single lock acquisition rather than one
// per row. limit > 0 stops after limit survivors (early termination
// for LIMIT pushdown); 0 means no limit.
func (t *Table) FilterMatch(ids []RowID, preds []Pred, sets [][]RowID, limit int) []RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []RowID
	for _, id := range ids {
		if !t.aliveLocked(id) {
			continue
		}
		pass := true
		for i := range preds {
			if !t.matchLocked(id, &preds[i]) {
				pass = false
				break
			}
		}
		if pass {
			for _, set := range sets {
				if !containsSorted(set, id) {
					pass = false
					break
				}
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
	return out
}

// containsSorted reports membership of id in an ascending slice.
func containsSorted(ids []RowID, id RowID) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}

// Open range bounds for callers building range predicates without
// importing math.
var (
	// NegInf is the open lower bound.
	NegInf = math.Inf(-1)
	// PosInf is the open upper bound.
	PosInf = math.Inf(1)
)
