// Package qlog simulates the ads-search-engine query logs the paper
// mines for Type I similarity, and builds the TI-matrix from them
// exactly per Eq. 3: TI_Sim(A,B) is the max-normalized sum of five
// log-derived features — query modifications Mod(A,B), submission
// proximity Time(A,B), dwell time Ad_Time(A,B), engine rank
// Rank(A,B), and clicks Click(A,B).
//
// The log itself is synthetic (the paper used logs from local ads
// search engines we do not have): a latent-affinity model places
// every Type I value in a small embedding space, and simulated users
// browse related values with probability driven by that affinity.
// The TI-matrix construction consumes only the log, so the paper's
// pipeline — log → features → normalized sum — is preserved intact.
package qlog

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/schema"
)

// Click is one clicked result inside a query event.
type Click struct {
	// Value is the Type I attribute value the clicked ad showcases.
	Value string
	// Rank is the 1-based rank the engine gave the ad.
	Rank int
	// Dwell is the seconds the user spent on the ad page.
	Dwell float64
}

// Event is one query submission in a session.
type Event struct {
	// Query is the Type I value the user searched for.
	Query string
	// At is the submission time, in seconds from session start.
	At float64
	// Clicks are the results the user clicked.
	Clicks []Click
}

// Session is one user's sustained activity period. Each session has a
// unique anonymous user ID, per the paper's log format.
type Session struct {
	UserID string
	Events []Event
}

// Log is a full query log for one ads domain.
type Log struct {
	Domain   string
	Sessions []Session
}

// Simulator generates query logs over a domain's Type I values.
type Simulator struct {
	rng      *rand.Rand
	values   []string
	emb      map[string][2]float64
	affinity map[[2]string]float64
}

// NewSimulator builds the latent-affinity model for s's Type I
// values: each value gets a deterministic position in a 2-D latent
// space; affinity decays exponentially with distance. Values of
// different Type I attributes may still be affine (a Camry and an
// Accord are both mid-size sedans), which is exactly the cross-value
// relatedness the TI-matrix exists to capture.
func NewSimulator(s *schema.Schema, seed int64) *Simulator {
	rng := rand.New(rand.NewSource(seed))
	sim := &Simulator{
		rng:      rng,
		emb:      make(map[string][2]float64),
		affinity: make(map[[2]string]float64),
	}
	for _, a := range s.AttrsOfType(schema.TypeI) {
		for _, v := range a.Values {
			sim.values = append(sim.values, v)
			sim.emb[v] = [2]float64{rng.Float64(), rng.Float64()}
		}
	}
	for _, a := range sim.values {
		for _, b := range sim.values {
			if a == b {
				continue
			}
			d := dist(sim.emb[a], sim.emb[b])
			sim.affinity[[2]string{a, b}] = math.Exp(-3 * d)
		}
	}
	return sim
}

// TrueAffinity exposes the latent relatedness of two values in [0,1].
// The appraiser oracle uses it as ground truth; the TI-matrix must
// recover it from the log alone.
func (s *Simulator) TrueAffinity(a, b string) float64 {
	if a == b {
		return 1
	}
	return s.affinity[[2]string{a, b}]
}

// Simulate produces a log with n sessions. Each session follows one
// user who searches for a seed value and then browses: related values
// are re-queried sooner, their ads are ranked higher, clicked more,
// and read longer — planting the five Eq. 3 signals.
func (s *Simulator) Simulate(domain string, n int) *Log {
	log := &Log{Domain: domain}
	for i := 0; i < n; i++ {
		log.Sessions = append(log.Sessions, s.session(i))
	}
	return log
}

func (s *Simulator) session(i int) Session {
	sess := Session{UserID: fmt.Sprintf("u%06d", i)}
	cur := s.values[s.rng.Intn(len(s.values))]
	t := 0.0
	steps := 2 + s.rng.Intn(4)
	for step := 0; step < steps; step++ {
		ev := Event{Query: cur, At: t}
		// The engine ranks ads for related values higher; the user
		// clicks 0-3 ads, preferring related ones, and dwells longer
		// on them.
		for c := 0; c < 3; c++ {
			target := s.weightedPick(cur)
			aff := s.TrueAffinity(cur, target)
			// float64(x*y) rounds the product, so no CPU fuses it with the add.
			if s.rng.Float64() > 0.25+float64(0.65*aff) {
				continue
			}
			rank := 1 + int((1-aff)*8) + s.rng.Intn(3)
			dwell := 10 + float64(160*aff) + float64(s.rng.Float64()*25)
			ev.Clicks = append(ev.Clicks, Click{Value: target, Rank: rank, Dwell: dwell})
		}
		sess.Events = append(sess.Events, ev)
		// Next query: modify toward a related value. Related
		// modifications happen sooner.
		next := s.weightedPick(cur)
		gap := 20 + float64((1-s.TrueAffinity(cur, next))*300) + float64(s.rng.Float64()*40)
		t += gap
		cur = next
	}
	return sess
}

// weightedPick selects a value with probability proportional to its
// affinity with cur (plus uniform noise so unrelated pairs appear in
// the log too).
func (s *Simulator) weightedPick(cur string) string {
	total := 0.0
	for _, v := range s.values {
		if v == cur {
			continue
		}
		total += 0.05 + s.TrueAffinity(cur, v)
	}
	r := s.rng.Float64() * total
	for _, v := range s.values {
		if v == cur {
			continue
		}
		r -= 0.05 + s.TrueAffinity(cur, v)
		if r <= 0 {
			return v
		}
	}
	return s.values[len(s.values)-1]
}

func dist(a, b [2]float64) float64 {
	dx, dy := a[0]-b[0], a[1]-b[1]
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}
