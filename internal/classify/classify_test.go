package classify

import (
	"math"
	"testing"
)

// trainingSets builds two easily-separable classes plus a bursty
// third class to exercise JBBSM's burstiness modelling.
func trainingSets() map[string][][]string {
	return map[string][][]string{
		"cars": {
			{"honda", "accord", "red", "price"},
			{"toyota", "camry", "blue", "mileage"},
			{"ford", "mustang", "manual", "price"},
			{"honda", "civic", "automatic", "year"},
		},
		"jobs": {
			{"software", "engineer", "salary", "python"},
			{"developer", "java", "salary", "remote"},
			{"engineer", "senior", "experience", "sql"},
			{"analyst", "security", "salary", "contract"},
		},
	}
}

// trainable is a classifier under training: Train lives on the
// concrete types, not on Classifier.
type trainable interface {
	Classifier
	Train(class string, docs [][]string)
}

func trainBoth(c trainable) {
	for class, docs := range trainingSets() {
		c.Train(class, docs)
	}
}

func TestJBBSMSeparableClasses(t *testing.T) {
	c := NewJBBSM()
	trainBoth(c)
	cases := map[string]string{
		"cars": "honda red automatic",
		"jobs": "senior python engineer salary",
	}
	for want, doc := range cases {
		got, scores, err := c.Classify(splitWords(doc))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Classify(%q) = %q (scores %v), want %q", doc, got, scores, want)
		}
	}
}

func TestMultinomialSeparableClasses(t *testing.T) {
	c := NewMultinomial()
	trainBoth(c)
	got, _, err := c.Classify(splitWords("honda blue price"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "cars" {
		t.Errorf("Classify = %q", got)
	}
}

func TestClassifyUntrained(t *testing.T) {
	for _, c := range []Classifier{NewJBBSM(), NewMultinomial()} {
		if _, _, err := c.Classify([]string{"x"}); err == nil {
			t.Errorf("%T: Classify on empty classifier should error", c)
		}
	}
}

func TestClassifyDeterministicTieBreak(t *testing.T) {
	c := NewMultinomial()
	c.Train("a", [][]string{{"x"}})
	c.Train("b", [][]string{{"x"}})
	got, _, err := c.Classify([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "a" {
		t.Errorf("tie should break alphabetically, got %q", got)
	}
}

func TestJBBSMBurstinessAdvantage(t *testing.T) {
	// Class "bursty": the word "deal" appears four times in a quarter
	// of the docs and never otherwise. Class "flat": "deal" appears
	// exactly once in every doc. The OVERALL frequency of "deal" is
	// identical (40 occurrences per 40 docs), so the classes differ
	// only in the rate distribution — exactly the burstiness signal
	// the Beta-Binomial models and a frequency-only likelihood cannot
	// see. Filler words cycle deterministically to avoid noise.
	jb := NewJBBSM()
	filler := []string{"item", "offer", "listing", "sale", "post"}
	var bursty, flat [][]string
	for i := 0; i < 40; i++ {
		doc := make([]string, 0, 8)
		if i%4 == 0 {
			doc = append(doc, "deal", "deal", "deal", "deal")
		}
		for j := 0; len(doc) < 8; j++ {
			doc = append(doc, filler[(i+j)%len(filler)])
		}
		bursty = append(bursty, doc)

		doc2 := []string{"deal"}
		for j := 0; len(doc2) < 8; j++ {
			doc2 = append(doc2, filler[(i+j)%len(filler)])
		}
		flat = append(flat, doc2)
	}
	jb.Train("bursty", bursty)
	jb.Train("flat", flat)

	// A pure repeat of "deal" matches the bursty rate distribution.
	got, _, err := jb.Classify([]string{"deal", "deal"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "bursty" {
		t.Errorf("JBBSM failed to use burstiness on repeated word: got %q", got)
	}
	// A single occurrence amid another word matches the flat class.
	got, _, err = jb.Classify([]string{"deal", "item"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "flat" {
		t.Errorf("JBBSM misclassified single-occurrence doc: got %q", got)
	}
}

func TestFitBetaDegenerate(t *testing.T) {
	for _, c := range []struct{ mean, variance float64 }{
		{0, 0}, {1, 0}, {0.5, 0}, {0.5, 0.3}, {0.5, 0.25},
	} {
		p := fitBeta(c.mean, c.variance, 10)
		if p.alpha <= 0 || p.beta <= 0 {
			t.Errorf("fitBeta(%g,%g) = %+v (must stay positive)", c.mean, c.variance, p)
		}
	}
}

func TestLogBetaBinomialPMFIsNormalized(t *testing.T) {
	// The PMF must sum to ~1 over its support.
	for _, p := range []struct{ a, b float64 }{{0.5, 2}, {1, 1}, {3, 7}} {
		n := 12
		total := 0.0
		for x := 0; x <= n; x++ {
			total += math.Exp(logBetaBinomialPMF(x, n, p.a, p.b))
		}
		if total < 0.999 || total > 1.001 {
			t.Errorf("PMF(a=%g,b=%g) sums to %g", p.a, p.b, total)
		}
	}
}

func splitWords(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
