package rank

import (
	"math"
	"sort"

	"repro/internal/sqldb"
	"repro/internal/text"
)

// FAQFinder reimplements the FAQ-retrieval baseline of Burke et
// al. [3] as adapted in Sec. 5.5.2: every ads record is treated as a
// document (the concatenation of its categorical values), the
// question as the query, and records are ranked by TF-IDF cosine
// similarity. The paper notes FAQFinder "uses a simple method that
// does not compare numerical attributes", which is why it trails the
// other informed rankers — this implementation deliberately keeps
// that limitation.
type FAQFinder struct {
	idf   map[string]float64
	docs  map[sqldb.RowID]map[string]float64 // tf-idf vectors
	norms map[sqldb.RowID]float64
	docsN int
}

// NewFAQFinder indexes every record of tbl.
func NewFAQFinder(tbl *sqldb.Table) *FAQFinder {
	f := &FAQFinder{
		idf:   make(map[string]float64),
		docs:  make(map[sqldb.RowID]map[string]float64),
		norms: make(map[sqldb.RowID]float64),
	}
	s := tbl.Schema()
	df := map[string]int{}
	raw := map[sqldb.RowID]map[string]int{}
	for _, id := range tbl.AllRowIDs() {
		tf := map[string]int{}
		for _, attr := range s.Attrs {
			v := tbl.Value(id, attr.Name)
			if !v.IsString() {
				continue // numeric attributes are not compared
			}
			for _, w := range text.Words(v.Str()) {
				tf[text.Stem(w)]++
			}
		}
		raw[id] = tf
		for w := range tf {
			df[w]++
		}
		f.docsN++
	}
	for w, n := range df {
		f.idf[w] = math.Log(float64(f.docsN+1) / float64(n+1))
	}
	for id, tf := range raw {
		// Sum the norm in sorted word order: map-order float addition
		// would give each document a slightly different norm per run.
		words := make([]string, 0, len(tf))
		for w := range tf {
			words = append(words, w)
		}
		sort.Strings(words)
		vec := make(map[string]float64, len(tf))
		norm := 0.0
		for _, w := range words {
			x := float64(tf[w]) * f.idf[w]
			vec[w] = x
			// float64(x*y) rounds the product, so no CPU fuses it with the add.
			norm += float64(x * x)
		}
		f.docs[id] = vec
		f.norms[id] = math.Sqrt(norm)
	}
	return f
}

// Name implements Ranker.
func (f *FAQFinder) Name() string { return "FAQFinder" }

// Rank implements Ranker.
func (f *FAQFinder) Rank(q *Query, tbl *sqldb.Table, cands []sqldb.RowID) []sqldb.RowID {
	qvec := map[string]float64{}
	for _, w := range text.Words(q.Text) {
		if text.IsStopword(w) {
			continue
		}
		st := text.Stem(w)
		qvec[st] += f.idf[st]
	}
	// Flatten the query vector into a fixed order: summing the dot
	// product over randomized map iteration perturbs the low bits of
	// near-tied cosines differently on every call, making rankings —
	// and the experiment figures built on them — drift between runs.
	terms := make([]struct {
		w string
		x float64
	}, 0, len(qvec))
	for w, x := range qvec {
		terms = append(terms, struct {
			w string
			x float64
		}{w, x})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].w < terms[j].w })
	qnorm := 0.0
	for _, t := range terms {
		qnorm += float64(t.x * t.x)
	}
	qnorm = math.Sqrt(qnorm)
	return sortByScore(cands, func(id sqldb.RowID) float64 {
		dvec := f.docs[id]
		dnorm := f.norms[id]
		if qnorm == 0 || dnorm == 0 {
			return 0
		}
		dot := 0.0
		for _, t := range terms {
			dot += float64(t.x * dvec[t.w])
		}
		return dot / (qnorm * dnorm)
	})
}
