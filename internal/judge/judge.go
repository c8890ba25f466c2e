// Package judge simulates the Facebook appraisers whose relevance
// judgments the paper's ranking and Boolean-interpretation surveys
// collected (Sec. 5.4-5.5). The oracle's notion of relatedness is
// deliberately independent of any ranker's scoring internals: it uses
// the *generating* models — the latent Type I affinity of the query-log
// simulator and the schema value ranges — plus per-appraiser noise, so
// a ranker scores well only by actually recovering those signals.
package judge

import (
	"math/rand"

	"repro/internal/boolean"
	"repro/internal/qlog"
	"repro/internal/rank"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

// Appraiser judges whether answers are related to questions.
type Appraiser struct {
	rng *rand.Rand
	// affinity returns ground-truth Type I relatedness per domain.
	affinity map[string]*qlog.Simulator
	schemas  map[string]*schema.Schema

	// Threshold is the mean-relatedness level above which an appraiser
	// calls an answer related.
	Threshold float64
	// Noise is the standard deviation of per-judgment noise.
	Noise float64
	// DomainNoise adds extra per-judgment noise per domain.
	DomainNoise map[string]float64
	// ExpertiseWeight blends in a record-level idiosyncratic "appeal"
	// component per domain, modelling the Sec. 5.5.3 observation that
	// CS-jobs appraisers "ranked the answers based on which result is
	// more relevant to their own expertise and experience" rather
	// than similarity. Unlike per-judgment noise, this component is
	// systematic (stable per record), so a larger appraiser panel
	// cannot vote it away — which is exactly why the paper's CS-jobs
	// scores stay depressed.
	ExpertiseWeight map[string]float64
}

// NewAppraiser builds the oracle. sims supplies the per-domain latent
// affinity models (may be nil for domains judged without Type I
// ground truth).
func NewAppraiser(seed int64, sims map[string]*qlog.Simulator, schemas map[string]*schema.Schema) *Appraiser {
	return &Appraiser{
		rng:       rand.New(rand.NewSource(seed)),
		affinity:  sims,
		schemas:   schemas,
		Threshold: 0.45,
		Noise:     0.10,
		DomainNoise: map[string]float64{
			"csjobs": 0.10,
		},
		ExpertiseWeight: map[string]float64{
			"csjobs": 0.45,
		},
	}
}

// Related judges whether record id is related to a question with the
// given intended conditions. The aggregate is the MINIMUM condition
// degree: a user shopping for a "blue Honda Accord under $15k" judges
// a partial answer by its worst violation, not the average — an
// otherwise-perfect diesel truck is unrelated. The noisy minimum is
// compared to the threshold.
func (a *Appraiser) Related(domain string, conds []boolean.Condition, tbl *sqldb.Table, id sqldb.RowID) bool {
	if len(conds) == 0 {
		return false
	}
	worst := 1.0
	for i := range conds {
		if d := a.condDegree(domain, &conds[i], tbl, id); d < worst {
			worst = d
		}
	}
	if w := a.ExpertiseWeight[domain]; w > 0 {
		// float64(x*y) rounds the product, so no CPU fuses it with the add.
		worst = float64((1-w)*worst) + float64(w*recordAppeal(domain, id))
	}
	noise := a.Noise + a.DomainNoise[domain]
	return worst+float64(a.rng.NormFloat64()*noise) >= a.Threshold
}

// recordAppeal is a stable pseudo-random value in [0,1] per record:
// the idiosyncratic expertise match of Sec. 5.5.3 that no similarity
// measure can predict. A multiplicative hash keeps it deterministic.
func recordAppeal(domain string, id sqldb.RowID) float64 {
	h := uint64(id)*2654435761 + 97
	for i := 0; i < len(domain); i++ {
		h = h*31 + uint64(domain[i])
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h%10000) / 10000
}

// condDegree is the ground-truth degree in [0,1] to which the record
// meets one condition.
func (a *Appraiser) condDegree(domain string, c *boolean.Condition, tbl *sqldb.Table, id sqldb.RowID) float64 {
	if rank.Satisfies(tbl, id, c) {
		return 1
	}
	v := tbl.Value(id, c.Attr)
	if v.IsNull() {
		return 0
	}
	sch := a.schemas[domain]
	if c.IsNumeric() {
		if sch == nil {
			return 0
		}
		attr, ok := sch.Attr(c.Attr)
		if !ok {
			return 0
		}
		target := c.X
		if c.Op == boolean.OpBetween {
			if n := v.Num(); n < c.X {
				target = c.X
			} else {
				target = c.Y
			}
		}
		// Humans tolerate numeric misses proportionally to the asked
		// value, not to the attribute's full catalogue range: a buyer
		// asking under $15,000 does not call a $40,000 car related.
		// The tolerance is the smaller of 35% of the target and a
		// quarter of the attribute range (the latter keeps year-like
		// attributes, whose absolute values are large, sensible).
		scale := 0.35 * abs(target)
		if r := 0.25 * attr.Range(); r < scale {
			scale = r
		}
		if scale <= 0 {
			return 0
		}
		return 0.9 * rank.NumSim(target, v.Num(), scale)
	}
	switch c.Type {
	case schema.TypeI:
		sim := a.affinity[domain]
		if sim == nil {
			return 0
		}
		best := 0.0
		for _, want := range c.Values {
			if aff := sim.TrueAffinity(want, v.Str()); aff > best {
				best = aff
			}
		}
		return 0.95 * best
	default:
		// A mismatched descriptive property: many users still consider
		// the ad loosely related ("would rather search cars with
		// similar features", Sec. 5.1 Q4: 93%), so a moderate degree.
		if c.Negated {
			return 0.2
		}
		return 0.45
	}
}

// JudgeRanking maps a ranked answer list to per-position related
// flags, the input shape of the P@K and MRR metrics.
func (a *Appraiser) JudgeRanking(domain string, conds []boolean.Condition, tbl *sqldb.Table, ids []sqldb.RowID) []bool {
	out := make([]bool, len(ids))
	for i, id := range ids {
		out[i] = a.Related(domain, conds, tbl, id)
	}
	return out
}

// InterpretationVote simulates one survey respondent choosing between
// the system's interpretation of a Boolean question and the
// alternatives (Sec. 5.4): the respondent agrees with probability
// 1-ambiguity.
func (a *Appraiser) InterpretationVote(ambiguity float64) bool {
	return a.rng.Float64() >= ambiguity
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
