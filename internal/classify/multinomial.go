package classify

import "math"

// Multinomial is the classic multinomial Naive Bayes with Laplace
// smoothing. It serves as the ablation baseline for JBBSM (DESIGN.md
// "ablate-jbbsm"): identical prior and tokenization, but a likelihood
// that ignores burstiness. Like JBBSM it is trained once, before it is
// shared, and Classify is then a pure read.
type Multinomial struct {
	classes map[string]*mnClass
	vocab   map[string]struct{}
	total   int
}

type mnClass struct {
	docs   int
	tokens int
	counts counts
}

// NewMultinomial returns an empty multinomial NB classifier.
func NewMultinomial() *Multinomial {
	return &Multinomial{
		classes: make(map[string]*mnClass),
		vocab:   make(map[string]struct{}),
	}
}

// Train adds the documents as training examples of class. It is not
// safe to call concurrently with Classify.
func (m *Multinomial) Train(class string, docs [][]string) {
	c := m.classes[class]
	if c == nil {
		c = &mnClass{counts: make(counts)}
		m.classes[class] = c
	}
	for _, doc := range docs {
		if len(doc) == 0 {
			continue
		}
		for _, w := range doc {
			c.counts[w]++
			c.tokens++
			m.vocab[w] = struct{}{}
		}
		c.docs++
		m.total++
	}
}

// Classify implements Classifier.
func (m *Multinomial) Classify(doc []string) (string, map[string]float64, error) {
	scores := make(map[string]float64, len(m.classes))
	v := float64(len(m.vocab))
	for name, c := range m.classes {
		if c.docs == 0 {
			continue
		}
		s := math.Log(float64(c.docs) / float64(m.total))
		denom := float64(c.tokens) + v
		for _, w := range doc {
			s += math.Log((float64(c.counts[w]) + 1) / denom)
		}
		scores[name] = s
	}
	best, err := argmax(scores)
	return best, scores, err
}
