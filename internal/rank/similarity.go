package rank

import (
	"math"
	"sync"

	"repro/internal/boolean"
	"repro/internal/qlog"
	"repro/internal/schema"
	"repro/internal/shorthand"
	"repro/internal/sqldb"
	"repro/internal/wsmatrix"
)

// Similarity bundles the three per-type similarity sources of
// Sec. 4.3.2: the TI-matrix for Type I values, the WS-matrix for
// Type II values, and schema value ranges for Num_Sim on Type III
// values.
type Similarity struct {
	Schema *schema.Schema
	TI     *qlog.TIMatrix
	WS     *wsmatrix.Matrix

	// shards memoize categorical pair similarities: the WS-matrix
	// phrase alignment re-stems its inputs on every call, and the same
	// (question value, record value) pairs recur across hundreds of
	// candidates during partial matching. The cache is lock-striped —
	// keys hash to one of catShards shards, each with its own RWMutex
	// and map — so concurrent queries (the web UI, experiment worker
	// pools) contend only on colliding stripes, and the common
	// cache-hit path takes a read lock only. The zero value is ready
	// to use.
	shards [catShards]catShard
}

// catShards is the stripe count; a small power of two keeps the
// modulo cheap while spreading an 8-or-more-worker pool across
// independent locks.
const catShards = 16

type catShard struct {
	mu sync.RWMutex
	m  map[catKey]float64
}

type catKey struct {
	typ  schema.AttrType
	a, b string
}

// shardIndex hashes the key (FNV-1a over type and both strings) to a
// stripe.
func (k catKey) shardIndex() int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	h = (h ^ uint32(k.typ)) * prime32
	for i := 0; i < len(k.a); i++ {
		h = (h ^ uint32(k.a[i])) * prime32
	}
	h = (h ^ 0xff) * prime32 // separator so ("ab","c") ≠ ("a","bc")
	for i := 0; i < len(k.b); i++ {
		h = (h ^ uint32(k.b[i])) * prime32
	}
	return int(h % catShards)
}

// NumSim is Eq. 4: 1 - |T-V| / Attribute_Value_Range, clamped to
// [0,1]. rangeWidth must be positive.
func NumSim(t, v, rangeWidth float64) float64 {
	if rangeWidth <= 0 {
		return 0
	}
	s := 1 - math.Abs(t-v)/rangeWidth
	if s < 0 {
		return 0
	}
	return s
}

// condSimVal scores how closely a record's value v matches the
// dropped condition c, in [0,1] (TI_Sim and Feat_Sim are normalized by
// their matrix maxima per Sec. 4.3.2; Num_Sim is already in range).
func (s *Similarity) condSimVal(v sqldb.Value, c *boolean.Condition) float64 {
	if v.IsNull() {
		return 0
	}
	if c.IsNumeric() {
		attr, ok := s.Schema.Attr(c.Attr)
		if !ok {
			return 0
		}
		target := c.X
		if c.Op == boolean.OpBetween {
			// Inside the range is a full match; outside, distance to
			// the nearest bound.
			n := v.Num()
			switch {
			case n >= c.X && n <= c.Y:
				return 1
			case n < c.X:
				target = c.X
			default:
				target = c.Y
			}
		}
		return NumSim(target, v.Num(), attr.Range())
	}
	stored := v.Str()
	best := 0.0
	for _, want := range c.Values {
		sim := s.categoricalSim(c.Type, want, stored)
		if sim > best {
			best = sim
		}
	}
	if c.Negated {
		// A record matching a negated value is maximally dissimilar.
		return 1 - best
	}
	return best
}

// categoricalSim returns the memoized normalized similarity of a
// question value and a stored value of the given attribute type.
func (s *Similarity) categoricalSim(typ schema.AttrType, want, stored string) float64 {
	if want == stored {
		return 1
	}
	k := catKey{typ: typ, a: want, b: stored}
	if sim, ok := s.cacheGet(k); ok {
		return sim
	}
	var sim float64
	switch typ {
	case schema.TypeI:
		if s.TI != nil {
			sim = s.TI.NormSim(want, stored)
		}
	default:
		if s.WS != nil {
			sim = s.WS.NormSim(want, stored)
		}
	}
	s.cachePut(k, sim)
	return sim
}

func (s *Similarity) cacheGet(k catKey) (float64, bool) {
	sh := &s.shards[k.shardIndex()]
	sh.mu.RLock()
	sim, ok := sh.m[k]
	sh.mu.RUnlock()
	return sim, ok
}

func (s *Similarity) cachePut(k catKey, sim float64) {
	sh := &s.shards[k.shardIndex()]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[catKey]float64)
	}
	sh.m[k] = sim
	sh.mu.Unlock()
}

// condSatisfiedVal is Satisfies over an already-fetched value, with
// memoized categorical checks (the shorthand normalization is the hot
// spot when scoring hundreds of candidates).
func (s *Similarity) condSatisfiedVal(v sqldb.Value, c *boolean.Condition) bool {
	if c.IsNumeric() {
		ok := satisfiesPositiveVal(v, c)
		if c.Negated {
			return !ok
		}
		return ok
	}
	if v.IsNull() {
		return c.Negated
	}
	stored := v.Str()
	match := false
	for _, want := range c.Values {
		if want == stored {
			match = true
			break
		}
		k := catKey{typ: 0, a: want, b: stored} // typ 0 marks the satisfaction cache
		cached, ok := s.cacheGet(k)
		if !ok {
			cached = 0
			if shorthandMatch(want, stored) {
				cached = 1
			}
			s.cachePut(k, cached)
		}
		if cached == 1 {
			match = true
			break
		}
	}
	if c.Negated {
		return !match
	}
	return match
}

// BestRankSim scores a row against all N single-condition
// relaxations and returns the best (score, dropped index). Records
// produced by different relaxed queries of the N−1 strategy are
// merged on this score. It reads only the row, so scoring takes no
// table lock.
//
// Eq. 5 scores a drop d as the N−1 satisfied conditions, 1 each, plus
// the similarity of condition d. Each condition's similarity and
// satisfaction are evaluated once and the N drop choices are scored
// from that memo — O(N) cell reads and cache probes instead of O(N²).
// Each score accumulates in condition order, so it is bit-identical to
// scoring every drop separately.
func (s *Similarity) BestRankSim(row sqldb.Row, conds []boolean.Condition) (float64, int) {
	n := len(conds)
	var simBuf [8]float64
	var satBuf [8]bool
	sims, sats := simBuf[:0], satBuf[:0]
	if n > len(simBuf) {
		sims, sats = make([]float64, 0, n), make([]bool, 0, n)
	}
	for i := range conds {
		v := row.Value(conds[i].Attr)
		sims = append(sims, s.condSimVal(v, &conds[i]))
		sats = append(sats, s.condSatisfiedVal(v, &conds[i]))
	}
	best, bestIdx := math.Inf(-1), -1
	for d := 0; d < n; d++ {
		score := 0.0
		for i := 0; i < n; i++ {
			if i == d {
				score += sims[i]
			} else if sats[i] {
				score++
			}
		}
		if score > best {
			best, bestIdx = score, d
		}
	}
	return best, bestIdx
}

// RowRankSim evaluates BestRankSim per OR-group of an interpretation
// and returns the best score with the dropped condition's global index
// (the position within Interpretation.AllConditions). Scoring per
// group keeps N the size of one conjunction, as Eq. 5 intends.
func (s *Similarity) RowRankSim(row sqldb.Row, groups []boolean.Group) (float64, int) {
	best, bestIdx := math.Inf(-1), -1
	offset := 0
	for gi := range groups {
		conds := groups[gi].Conds
		sc, idx := s.BestRankSim(row, conds)
		if sc > best {
			best = sc
			if idx >= 0 {
				bestIdx = offset + idx
			}
		}
		offset += len(conds)
	}
	return best, bestIdx
}

// BestRankSimOverGroups is RowRankSim of row id of tbl, taken in a
// read view of its own.
func (s *Similarity) BestRankSimOverGroups(tbl *sqldb.Table, id sqldb.RowID, groups []boolean.Group) (float64, int) {
	return s.RowRankSim(tbl.Row(id), groups)
}

// shorthandMatch adapts shorthand.Match for the satisfaction cache.
func shorthandMatch(a, b string) bool { return shorthand.Match(a, b) }
