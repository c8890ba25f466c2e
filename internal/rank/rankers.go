package rank

import (
	"math/rand"
	"sort"

	"repro/internal/boolean"
	"repro/internal/sqldb"
)

// Query is the ranker-facing view of a question: its raw text and its
// interpreted conditions.
type Query struct {
	Text  string
	Conds []boolean.Condition
}

// Ranker orders candidate records by decreasing relevance to a query.
type Ranker interface {
	// Name identifies the approach in experiment output.
	Name() string
	// Rank returns the candidates reordered best-first. Implementations
	// must not mutate cands.
	Rank(q *Query, tbl *sqldb.Table, cands []sqldb.RowID) []sqldb.RowID
}

// scored sorts ids by descending score with RowID tie-breaking, so
// every ranker is deterministic.
func sortByScore(cands []sqldb.RowID, score func(sqldb.RowID) float64) []sqldb.RowID {
	out := make([]sqldb.RowID, len(cands))
	copy(out, cands)
	scores := make(map[sqldb.RowID]float64, len(out))
	for _, id := range out {
		scores[id] = score(id)
	}
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := scores[out[i]], scores[out[j]]
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// CQAds is the paper's ranker: Rank_Sim (Eq. 5) with the best
// single-condition relaxation per record.
type CQAds struct {
	Sim *Similarity
}

// Name implements Ranker.
func (r *CQAds) Name() string { return "CQAds" }

// Rank implements Ranker.
func (r *CQAds) Rank(q *Query, tbl *sqldb.Table, cands []sqldb.RowID) []sqldb.RowID {
	return sortByScore(cands, func(id sqldb.RowID) float64 {
		s, _ := r.Sim.BestRankSim(tbl.Row(id), q.Conds)
		return s
	})
}

// Random is the baseline of [13]: a seeded shuffle, providing the
// floor that any real ranking approach must beat.
type Random struct {
	Seed int64
}

// Name implements Ranker.
func (r *Random) Name() string { return "Random" }

// Rank implements Ranker.
func (r *Random) Rank(q *Query, tbl *sqldb.Table, cands []sqldb.RowID) []sqldb.RowID {
	out := make([]sqldb.RowID, len(cands))
	copy(out, cands)
	rng := rand.New(rand.NewSource(r.Seed + int64(len(q.Text)))) //lint:cqads-ignore wallclock the paper's Random baseline, seeded from r.Seed+query so runs stay reproducible
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
