package classify

import (
	"math"
	"sort"
)

// JBBSM is the Naive Bayes classifier whose class-conditional
// likelihood is the Joint Beta-Binomial Sampling Model: for class c,
// each word w's count x in a document of length n is modelled as
//
//	x ~ BetaBinomial(n, alpha_cw, beta_cw)
//
// and the document likelihood is the product over the document's
// words ("joint" in the naive, per-word-independent sense). The Beta
// hyperparameters are fitted per class by the method of moments on
// the per-document word rates, which captures burstiness: a bursty
// word has a high-variance rate distribution, giving repeated
// occurrences much higher probability than a multinomial would.
// Unseen words fall back to a background Beta prior.
type JBBSM struct {
	classes map[string]*jbClass
	total   int // total training documents across classes
}

// The background Beta prior (backgroundAlpha, backgroundBeta) scores
// words never seen in a class (the "unseen words" handling the paper
// credits JBBSM with): unseen words are rare but not impossible.
// priorStrength is the equivalent-sample-size fallback used when a
// word's rate variance is too small for the method of moments.
const (
	backgroundAlpha = 0.05
	backgroundBeta  = 50
	priorStrength   = 10
)

type jbClass struct {
	docs  int
	words map[string]jbWord
}

// jbWord is one word of a class: the per-document rate moments
// training accumulates and the Beta parameters fitted from them.
type jbWord struct {
	rateSum, rate2Sum float64
	betaParams
}

type betaParams struct{ alpha, beta float64 }

// NewJBBSM returns an untrained classifier.
func NewJBBSM() *JBBSM {
	return &JBBSM{classes: make(map[string]*jbClass)}
}

// Train adds the documents as training examples of class and refits
// that class's Beta parameters. Train every class before the
// classifier is shared: it is not safe to call concurrently with
// Classify.
func (m *JBBSM) Train(class string, docs [][]string) {
	c := m.classes[class]
	if c == nil {
		c = &jbClass{words: make(map[string]jbWord)}
		m.classes[class] = c
	}
	for _, doc := range docs {
		if len(doc) == 0 {
			continue
		}
		n := float64(len(doc))
		for w, x := range countWords(doc) {
			r := float64(x) / n
			jw := c.words[w]
			jw.rateSum += r
			// float64(x*y) rounds the product, so no CPU fuses it with the add.
			jw.rate2Sum += float64(r * r)
			c.words[w] = jw
		}
		c.docs++
		m.total++
	}
	c.fit()
}

// fit computes Beta parameters for every word of the class by the
// method of moments over per-document rates. Documents of the class
// that do not contain the word contribute rate 0, which keeps alpha
// small for rare words.
func (c *jbClass) fit() {
	if c.docs == 0 {
		return
	}
	n := float64(c.docs)
	for w, jw := range c.words {
		mean := jw.rateSum / n
		variance := jw.rate2Sum/n - float64(mean*mean)
		jw.betaParams = fitBeta(mean, variance, priorStrength)
		c.words[w] = jw
	}
}

// fitBeta solves the Beta method-of-moments equations
//
//	alpha = m*(m(1-m)/v - 1),  beta = (1-m)*(m(1-m)/v - 1)
//
// falling back to a fixed-strength prior when the variance is
// degenerate. Parameters are floored to keep Lgamma finite.
func fitBeta(mean, variance, strength float64) betaParams {
	const floor = 1e-4
	if mean <= 0 {
		return betaParams{alpha: floor, beta: strength}
	}
	if mean >= 1 {
		return betaParams{alpha: strength, beta: floor}
	}
	mv := mean * (1 - mean)
	if variance <= 0 || variance >= mv {
		return betaParams{alpha: math.Max(mean*strength, floor), beta: math.Max((1-mean)*strength, floor)}
	}
	s := mv/variance - 1
	return betaParams{
		alpha: math.Max(mean*s, floor),
		beta:  math.Max((1-mean)*s, floor),
	}
}

// Classify implements Classifier. The score of class c is
//
//	log P(c) + sum_w log BetaBinomialPMF(x_w | n, alpha_cw, beta_cw)
//
// over the words present in the document.
func (m *JBBSM) Classify(doc []string) (string, map[string]float64, error) {
	scores := make(map[string]float64, len(m.classes))
	wc := countWords(doc)
	// Sum per-word terms in sorted order: float addition is not
	// associative, so map-order summation would let scores drift in
	// their last bits between identical calls (and across restarts).
	words := make([]string, 0, len(wc))
	for w := range wc {
		words = append(words, w)
	}
	sort.Strings(words)
	n := len(doc)
	for name, c := range m.classes {
		if c.docs == 0 {
			continue
		}
		s := math.Log(float64(c.docs) / float64(m.total)) // log P(c)
		for _, w := range words {
			p := betaParams{alpha: backgroundAlpha, beta: backgroundBeta}
			if jw, ok := c.words[w]; ok {
				p = jw.betaParams
			}
			s += logBetaBinomialPMF(wc[w], n, p.alpha, p.beta)
		}
		scores[name] = s
	}
	best, err := argmax(scores)
	return best, scores, err
}

// logBetaBinomialPMF is log P(X = x | n, a, b) of the beta-binomial
// distribution, computed with log-gamma for numeric stability:
//
//	log C(n,x) + log B(x+a, n-x+b) - log B(a, b)
func logBetaBinomialPMF(x, n int, a, b float64) float64 {
	return logChoose(n, x) +
		logBeta(float64(x)+a, float64(n-x)+b) -
		logBeta(a, b)
}

func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk - lnk
}

func logBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}
