// Package wsmatrix builds the word-similarity matrix that Feat_Sim
// reads for Type II values (Sec. 4.3.2). The paper adopts the
// WS-matrix of Koberstein & Ng [11], built from Wikipedia using the
// (i) frequency of co-occurrence and (ii) relative distance of
// non-stop, stemmed word pairs within documents. We apply the same
// construction to a synthetic topical corpus (see package corpus for
// the generator), since the Wikipedia dump cannot ship with an
// offline reproduction.
package wsmatrix

import (
	"math"

	"repro/internal/text"
)

// Matrix is a symmetric word-similarity matrix over stemmed,
// non-stop words.
type Matrix struct {
	idx map[string]int
	sim [][]float64
	max float64
}

// maxPairDistance bounds the in-document distance at which a word
// pair still contributes correlation, keeping construction linear in
// practice.
const maxPairDistance = 10

// Build constructs the matrix from a corpus of documents (each a word
// slice). Words are stemmed and stopword-filtered here, so callers
// pass raw token streams. The correlation of a pair accumulates
// 1/d for every co-occurrence at distance d ≤ maxPairDistance, and is
// normalized by the geometric mean of the words' frequencies so that
// ubiquitous words do not dominate.
func Build(corpus [][]string) *Matrix {
	m := &Matrix{idx: make(map[string]int)}
	freq := []float64{}
	intern := func(w string) int {
		i, ok := m.idx[w]
		if !ok {
			i = len(m.idx)
			m.idx[w] = i
			freq = append(freq, 0)
		}
		return i
	}
	type pair struct{ a, b int }
	acc := map[pair]float64{}
	for _, doc := range corpus {
		ids := make([]int, 0, len(doc))
		for _, w := range doc {
			if text.IsStopword(w) {
				continue
			}
			id := intern(text.Stem(w))
			ids = append(ids, id)
			freq[id]++
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids) && j-i <= maxPairDistance; j++ {
				a, b := ids[i], ids[j]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				acc[pair{a, b}] += 1 / float64(j-i)
			}
		}
	}
	n := len(m.idx)
	m.sim = make([][]float64, n)
	for i := range m.sim {
		m.sim[i] = make([]float64, n)
	}
	for p, v := range acc {
		s := v / geoMean(freq[p.a], freq[p.b])
		m.sim[p.a][p.b] = s
		m.sim[p.b][p.a] = s
		if s > m.max {
			m.max = s
		}
	}
	return m
}

func geoMean(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 1
	}
	return math.Sqrt(a * b)
}

// Sim returns the similarity of two words (any inflection; inputs are
// stemmed). Identical stems score Max(); unknown words score 0.
func (m *Matrix) Sim(a, b string) float64 {
	sa, sb := text.Stem(a), text.Stem(b)
	if sa == sb {
		return m.max
	}
	ia, ok := m.idx[sa]
	if !ok {
		return 0
	}
	ib, ok := m.idx[sb]
	if !ok {
		return 0
	}
	return m.sim[ia][ib]
}

// PhraseSim extends Sim to multi-word values ("4 wheel drive"): it
// averages the best per-word alignments in both directions.
func (m *Matrix) PhraseSim(a, b string) float64 {
	wa := text.Words(a)
	wb := text.Words(b)
	if len(wa) == 0 || len(wb) == 0 {
		return 0
	}
	return (m.bestAlign(wa, wb) + m.bestAlign(wb, wa)) / 2
}

func (m *Matrix) bestAlign(from, to []string) float64 {
	total := 0.0
	for _, w := range from {
		best := 0.0
		for _, v := range to {
			if s := m.Sim(w, v); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(from))
}

// Max returns the matrix's maximum similarity, the Rank_Sim
// normalizer for Feat_Sim.
func (m *Matrix) Max() float64 { return m.max }

// NormSim returns PhraseSim normalized to [0,1] by Max(). PhraseSim
// averages sums of per-word alignments, and float rounding can carry
// that average a hair past Max() (a value repeating a question word
// many times), so the ratio is clamped: Feat_Sim is one Eq. 5 term and
// must never exceed 1.
func (m *Matrix) NormSim(a, b string) float64 {
	if m.max == 0 {
		return 0
	}
	return min(1, m.PhraseSim(a, b)/m.max)
}

// Size returns the vocabulary size of the matrix.
func (m *Matrix) Size() int { return len(m.idx) }
