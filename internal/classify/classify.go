// Package classify implements the question-domain classifier of
// Sec. 3: a Naive Bayes classifier whose likelihood P(d|c) is the
// Joint Beta-Binomial Sampling Model (JBBSM) of Allison [1], which
// models keyword burstiness — a keyword is more likely to occur again
// in a document once it has appeared — and accounts for unseen words.
// A plain multinomial Naive Bayes is provided as the ablation
// baseline.
//
// A classifier is a build product: it is trained once, from questions
// generated over the hosted ads, before anything shares it, and is
// read-only from then on. Classify is therefore a pure read and safe
// for concurrent use without locks; nothing trains a classifier a
// running system holds, and nothing persists one — every node rebuilds
// it from its configuration, as it does the similarity matrices.
package classify

import (
	"fmt"
	"sort"
)

// Classifier assigns a class (ads domain) to a tokenized document
// (user question) by maximizing P(c|d) (Eq. 1-2). It has no Train:
// training is done on the concrete type before the classifier is
// shared.
type Classifier interface {
	// Classify returns the argmax class and per-class log-posterior
	// scores. It returns an error when no class has been trained.
	Classify(doc []string) (string, map[string]float64, error)
}

// counts is a bag-of-words count vector.
type counts map[string]int

func countWords(doc []string) counts {
	c := make(counts, len(doc))
	for _, w := range doc {
		c[w]++
	}
	return c
}

// argmax picks the highest-scoring class; ties break alphabetically so
// classification is deterministic.
func argmax(scores map[string]float64) (string, error) {
	if len(scores) == 0 {
		return "", fmt.Errorf("classify: classifier has no trained classes")
	}
	classes := make([]string, 0, len(scores))
	for c := range scores {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	best := classes[0]
	for _, c := range classes[1:] {
		if scores[c] > scores[best] {
			best = c
		}
	}
	return best, nil
}
