package classify

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
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
	// fitted/mu make lazy Beta fitting and runtime training safe for
	// concurrent Classify calls (concurrent asks, the web UI, live ad
	// ingestion): the atomic flag is the lock-free fast path
	// once fitting is published; Train and fit mutate under the write
	// lock while Classify scores under the read lock. A Train that
	// lands between a Classify's fit check and its scoring pass is
	// simply not yet visible to that one call — the next Classify
	// refits. Train resets the flag.
	fitted atomic.Bool
	mu     sync.RWMutex

	// BackgroundAlpha and BackgroundBeta are the Beta prior used for
	// words never seen in a class (the "unseen words" handling the
	// paper credits JBBSM with). The defaults make unseen words rare
	// but not impossible.
	BackgroundAlpha, BackgroundBeta float64
	// PriorStrength is the equivalent-sample-size fallback used when
	// a word's rate variance is too small for the method of moments.
	PriorStrength float64
}

type jbClass struct {
	docs  int
	words map[string]*betaParams
	// rateSums accumulates per-word rate moments during training.
	rateSum  map[string]float64
	rate2Sum map[string]float64
	docCount map[string]int // documents of the class containing the word
	fitted   bool
}

type betaParams struct{ alpha, beta float64 }

// NewJBBSM returns a classifier with the default hyperparameters.
func NewJBBSM() *JBBSM {
	return &JBBSM{
		classes:         make(map[string]*jbClass),
		BackgroundAlpha: 0.05,
		BackgroundBeta:  50,
		PriorStrength:   10,
	}
}

// Train implements Classifier. It is safe to call while other
// goroutines Classify: the new documents take effect atomically at
// the next refit.
func (m *JBBSM) Train(class string, docs [][]string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.classes[class]
	if c == nil {
		c = &jbClass{
			words:    make(map[string]*betaParams),
			rateSum:  make(map[string]float64),
			rate2Sum: make(map[string]float64),
			docCount: make(map[string]int),
		}
		m.classes[class] = c
	}
	for _, doc := range docs {
		if len(doc) == 0 {
			continue
		}
		n := float64(len(doc))
		for w, x := range countWords(doc) {
			r := float64(x) / n
			c.rateSum[w] += r
			// float64(x*y) rounds the product, so no CPU fuses it with the add.
			c.rate2Sum[w] += float64(r * r)
			c.docCount[w]++
		}
		c.docs++
		m.total++
	}
	c.fitted = false
	m.fitted.Store(false)
}

// fit computes Beta parameters for every word of every class by the
// method of moments over per-document rates. Documents of the class
// that do not contain the word contribute rate 0, which keeps alpha
// small for rare words.
func (m *JBBSM) fit() {
	if m.fitted.Load() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fitted.Load() {
		return
	}
	defer m.fitted.Store(true)
	for _, c := range m.classes {
		if c.fitted || c.docs == 0 {
			continue
		}
		n := float64(c.docs)
		for w := range c.rateSum {
			mean := c.rateSum[w] / n
			variance := c.rate2Sum[w]/n - float64(mean*mean)
			p := fitBeta(mean, variance, m.PriorStrength)
			c.words[w] = &p
		}
		c.fitted = true
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
	// fit() and the read lock are two separate acquisitions, so a
	// Train can land in the gap and unfit the model; re-check under
	// the read lock and refit so scoring only ever sees a fully
	// fitted state (counts and Beta params from the same fit).
	m.fit()
	m.mu.RLock()
	for !m.fitted.Load() {
		m.mu.RUnlock()
		m.fit()
		m.mu.RLock()
	}
	defer m.mu.RUnlock()
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
			p, ok := c.words[w]
			if !ok {
				p = &betaParams{alpha: m.BackgroundAlpha, beta: m.BackgroundBeta}
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
