package qlog

// TIMatrix holds TI_Sim values between Type I attribute values of one
// ads domain (Sec. 4.3.2). Values are symmetric; Sim(a,a) is defined
// as Max() so self-similarity ranks above any cross-value similarity.
type TIMatrix struct {
	sim map[[2]string]float64
	max float64
}

// feature accumulators per ordered pair, folded symmetrically at the
// end ("A is modified to B ... or vice versa").
type pairStats struct {
	mod     int     // # times A modified to B in consecutive queries
	gapSum  float64 // sum of submission gaps between A and B
	gapN    int
	dwell   float64 // total dwell on B's ads when A searched
	dwellN  int
	rankSum float64 // sum of reciprocal ranks of B's ads under query A
	rankN   int
	clicks  int // # clicks on B's ads when A searched
}

// BuildTIMatrix computes the TI-matrix from a query log per Eq. 3.
// Each of the five features is first averaged/counted per pair, then
// normalized by its maximum over the log so every factor lies in
// [0,1]; TI_Sim is their sum (range [0,5]).
//
// Time(A,B) is converted to a proximity (shorter average gaps score
// higher) before normalization, since Eq. 3 sums features oriented so
// that larger means more similar.
func BuildTIMatrix(log *Log) *TIMatrix {
	stats := map[[2]string]*pairStats{}
	get := func(a, b string) *pairStats {
		if a > b {
			a, b = b, a
		}
		k := [2]string{a, b}
		p := stats[k]
		if p == nil {
			p = &pairStats{}
			stats[k] = p
		}
		return p
	}
	for _, sess := range log.Sessions {
		for i, ev := range sess.Events {
			// Mod + Time: consecutive query pairs within the session.
			if i+1 < len(sess.Events) {
				next := sess.Events[i+1]
				if next.Query != ev.Query {
					p := get(ev.Query, next.Query)
					p.mod++
					p.gapSum += next.At - ev.At
					p.gapN++
				}
			}
			// Ad_Time + Rank + Click: clicked ads under this query.
			for _, c := range ev.Clicks {
				if c.Value == ev.Query {
					continue
				}
				p := get(ev.Query, c.Value)
				p.dwell += c.Dwell
				p.dwellN++
				if c.Rank > 0 {
					p.rankSum += 1 / float64(c.Rank)
					p.rankN++
				}
				p.clicks++
			}
		}
	}
	// Raw per-pair feature values.
	type raw struct{ mod, time, adTime, rank, click float64 }
	raws := map[[2]string]raw{}
	var maxes raw
	for k, p := range stats {
		var r raw
		r.mod = float64(p.mod)
		if p.gapN > 0 {
			avgGap := p.gapSum / float64(p.gapN)
			r.time = 1 / (1 + avgGap)
		}
		if p.dwellN > 0 {
			r.adTime = p.dwell / float64(p.dwellN)
		}
		if p.rankN > 0 {
			r.rank = p.rankSum / float64(p.rankN)
		}
		r.click = float64(p.clicks)
		raws[k] = r
		maxes.mod = maxf(maxes.mod, r.mod)
		maxes.time = maxf(maxes.time, r.time)
		maxes.adTime = maxf(maxes.adTime, r.adTime)
		maxes.rank = maxf(maxes.rank, r.rank)
		maxes.click = maxf(maxes.click, r.click)
	}
	m := &TIMatrix{sim: make(map[[2]string]float64, len(raws))}
	for k, r := range raws {
		s := norm(r.mod, maxes.mod) + norm(r.time, maxes.time) +
			norm(r.adTime, maxes.adTime) + norm(r.rank, maxes.rank) +
			norm(r.click, maxes.click)
		m.sim[k] = s
		if s > m.max {
			m.max = s
		}
	}
	return m
}

// Sim returns TI_Sim(a, b). Unknown pairs score 0; identical values
// score Max().
func (m *TIMatrix) Sim(a, b string) float64 {
	if a == b {
		return m.max
	}
	if a > b {
		a, b = b, a
	}
	return m.sim[[2]string{a, b}]
}

// Max returns the maximum TI_Sim in the matrix, the normalizer
// Rank_Sim divides by (Sec. 4.3.2).
func (m *TIMatrix) Max() float64 { return m.max }

// NormSim returns Sim(a,b) normalized to [0,1] by Max(), clamped so
// TI_Sim, one Eq. 5 term, never exceeds 1.
func (m *TIMatrix) NormSim(a, b string) float64 {
	if m.max == 0 {
		return 0
	}
	return min(1, m.Sim(a, b)/m.max)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func norm(v, max float64) float64 {
	if max == 0 {
		return 0
	}
	return v / max
}
