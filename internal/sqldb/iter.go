package sqldb

import (
	"math"
	"strings"
)

// This file adds the access layer the streaming query executor
// (internal/sql) drives: a driving scan over row ids plus residual
// predicates evaluated per row.
//
// Ownership rule: no index-owned slice is ever read outside t.mu.
// Delete edits posting lists in place, so every scan copies the ids it
// needs while holding the table's read lock — into a fresh slice (the
// Lookup* methods) or into a caller-owned buffer the caller may pool
// and reuse (AppendEqual, AppendRange, AppendSubstring,
// AppendLiveIDs). Reading the copy therefore needs no lock, no caller
// callback ever runs under the lock, and a concurrent mutation never
// tears an in-flight scan; as with all multi-call read sequences on a
// Table, the copy reflects the table at scan time, not a transaction.

// PredKind enumerates residual predicate forms.
type PredKind int

// Residual predicate kinds.
const (
	// PredEqual matches rows whose column Equal()s Value.
	PredEqual PredKind = iota
	// PredRange matches rows whose column is numeric and within
	// [Lo, Hi] under the stated inclusivity.
	PredRange
	// PredSubstring matches rows whose string column contains Sub
	// (Sub must already be lower-cased; NewSubstringPred does it).
	PredSubstring
)

// Pred is one residual predicate: a WHERE leaf evaluated per row
// against the stored value instead of through an index. Its semantics
// are exactly those of the corresponding index lookup (LookupEqual /
// LookupRange / LookupSubstring), so a conjunct pushed down as a
// residual filter selects the same rows it would have selected as a
// materialized posting list. Negate inverts the match over live rows,
// mirroring the complement the eager evaluator computes for NOT and
// <>.
type Pred struct {
	Kind         PredKind
	Col          string
	Value        Value   // PredEqual
	Lo, Hi       float64 // PredRange
	IncLo, IncHi bool    // PredRange
	Sub          string  // PredSubstring, lower-cased
	Negate       bool
}

// NewEqualPred builds an equality residual.
func NewEqualPred(col string, v Value) Pred {
	return Pred{Kind: PredEqual, Col: col, Value: v}
}

// NewRangePred builds a numeric range residual. Use math.Inf for open
// ends.
func NewRangePred(col string, lo, hi float64, incLo, incHi bool) Pred {
	return Pred{Kind: PredRange, Col: col, Lo: lo, Hi: hi, IncLo: incLo, IncHi: incHi}
}

// NewSubstringPred builds a substring residual, lower-casing sub the
// way LookupSubstring does.
func NewSubstringPred(col, sub string) Pred {
	return Pred{Kind: PredSubstring, Col: col, Sub: strings.ToLower(sub)}
}

// Negated returns a copy of p with the match inverted.
func (p Pred) Negated() Pred {
	p.Negate = !p.Negate
	return p
}

// MatchRow reports whether live row id satisfies p. Dead or
// out-of-range ids never match (not even negated predicates: the
// complement universe is the live row set).
func (t *Table) MatchRow(id RowID, p Pred) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.aliveLocked(id) {
		return false
	}
	return t.matchLocked(id, &p)
}

// MatchAll reports whether live row id satisfies every predicate,
// under a single lock acquisition.
func (t *Table) MatchAll(id RowID, preds []Pred) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.aliveLocked(id) {
		return false
	}
	for i := range preds {
		if !t.matchLocked(id, &preds[i]) {
			return false
		}
	}
	return true
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
		match = v.Equal(p.Value)
	case PredRange:
		n, isNum := v.tryNum()
		if isNum {
			okLo := n > p.Lo || (p.IncLo && n == p.Lo)
			okHi := n < p.Hi || (p.IncHi && n == p.Hi)
			match = okLo && okHi
		}
	case PredSubstring:
		match = strings.Contains(v.Str(), p.Sub)
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
