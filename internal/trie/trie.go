package trie

import (
	"sort"

	"repro/internal/text"
)

// node is one character of the trie. The node's value is its letter;
// its label is the concatenation of letters from the root (Sec. 4.1.3).
// A node with a non-nil entry is a keyword node carrying an identifier.
type node struct {
	children map[byte]*node
	entry    *Entry
	word     string // the full label, set on keyword nodes
}

func newNode() *node { return &node{children: make(map[byte]*node)} }

// Trie is an ordered character tree over the keywords of one ads
// domain.
type Trie struct {
	root  *node
	count int
}

// New returns an empty trie.
func New() *Trie { return &Trie{root: newNode()} }

// Len returns the number of keyword entries stored.
func (t *Trie) Len() int { return t.count }

// Insert adds phrase with its identifier entry. Phrases may contain
// spaces ("4 wheel drive"); combined keywords are detected by walking
// through the space child, as the paper describes. Re-inserting a
// phrase overwrites its entry.
func (t *Trie) Insert(phrase string, e Entry) {
	if phrase == "" {
		return
	}
	n := t.root
	for i := 0; i < len(phrase); i++ {
		c := phrase[i]
		child, ok := n.children[c]
		if !ok {
			child = newNode()
			n.children[c] = child
		}
		n = child
	}
	if n.entry == nil {
		t.count++
	}
	entry := e
	n.entry = &entry
	n.word = phrase
}

// Lookup returns the entry for an exact phrase match.
func (t *Trie) Lookup(phrase string) (Entry, bool) {
	n := t.walk(phrase)
	if n == nil || n.entry == nil {
		return Entry{}, false
	}
	return *n.entry, true
}

func (t *Trie) walk(s string) *node {
	n := t.root
	for i := 0; i < len(s); i++ {
		child, ok := n.children[s[i]]
		if !ok {
			return nil
		}
		n = child
	}
	return n
}

func collect(n *node, out *[]string) {
	if n.entry != nil {
		*out = append(*out, n.word)
	}
	for _, c := range sortedKeys(n.children) {
		collect(n.children[c], out)
	}
}

func sortedKeys(m map[byte]*node) []byte {
	keys := make([]byte, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// completionsFrom returns the keywords reachable from the deepest node
// matched by prefix, i.e. "the alternative keywords recognized by the
// trie, starting from the current node where W is encountered"
// (Sec. 4.2.1). When prefix matches nothing at all, it falls back to
// every keyword.
func (t *Trie) completionsFrom(prefix string) []string {
	n := t.root
	for i := 0; i < len(prefix); i++ {
		child, ok := n.children[prefix[i]]
		if !ok {
			break
		}
		n = child
	}
	var out []string
	collect(n, &out)
	if len(out) == 0 {
		collect(t.root, &out)
	}
	return out
}

// Suggest returns up to limit keywords starting with prefix, in
// lexicographic order — the autocomplete source for interactive
// front ends.
func (t *Trie) Suggest(prefix string, limit int) []string {
	if limit <= 0 {
		return nil
	}
	n := t.walk(prefix)
	if n == nil {
		return nil
	}
	var out []string
	collect(n, &out)
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Segment attempts to split word into a sequence of two or more
// keywords stored in the trie, modelling the missing-space repair of
// Sec. 4.2.1 ("Hondaaccord" → "honda", "accord"). It prefers the
// segmentation with the fewest parts. ok is false when no complete
// segmentation exists.
func (t *Trie) Segment(word string) (parts []string, ok bool) {
	best := t.segmentFrom(word, 0, map[int][]string{}, map[int]bool{})
	if best == nil || len(best) < 2 {
		return nil, false
	}
	return best, true
}

// segmentFrom finds the shortest segmentation of word[i:] into trie
// keywords, memoizing failures.
func (t *Trie) segmentFrom(word string, i int, memo map[int][]string, failed map[int]bool) []string {
	if i == len(word) {
		return []string{}
	}
	if failed[i] {
		return nil
	}
	if got, ok := memo[i]; ok {
		return got
	}
	var best []string
	n := t.root
	for j := i; j < len(word); j++ {
		child, ok := n.children[word[j]]
		if !ok {
			break
		}
		n = child
		if n.entry != nil {
			rest := t.segmentFrom(word, j+1, memo, failed)
			if rest != nil {
				cand := append([]string{word[i : j+1]}, rest...)
				if best == nil || len(cand) < len(best) {
					best = cand
				}
			}
		}
	}
	if best == nil {
		failed[i] = true
		return nil
	}
	memo[i] = best
	return best
}

// Correction is the result of spelling repair.
type Correction struct {
	// Parts is the corrected word sequence (len > 1 for space repair).
	Parts []string
	// Score is the SimilarText similarity of the correction, in [0,1];
	// 1 for exact segmentations.
	Score float64
}

// minCorrectionScore is the similarity floor below which a fuzzy
// correction is rejected and the keyword treated as non-essential, and
// minFuzzyLength is the shortest misspelling the fuzzy path accepts
// (very short unknown words are more likely non-essential than
// misspelled).
const (
	minCorrectionScore = 0.72
	minFuzzyLength     = 4
)

// Correct repairs word against the trie per Sec. 4.2.1: exact match
// wins; otherwise a segmentation into known keywords (forgotten
// space); otherwise the alternative keyword with the highest
// similar_text percentage. ok is false when nothing scores above the
// correction floor.
func (t *Trie) Correct(word string) (Correction, bool) {
	if _, exact := t.Lookup(word); exact {
		return Correction{Parts: []string{word}, Score: 1}, true
	}
	if parts, ok := t.Segment(word); ok {
		return Correction{Parts: parts, Score: 1}, true
	}
	if len(word) < minFuzzyLength {
		return Correction{}, false
	}
	candidates := t.completionsFrom(word)
	bestScore := 0.0
	bestDist := 1 << 30
	best := ""
	for _, cand := range candidates {
		s := text.SimilarText(word, cand)
		if s < bestScore {
			continue
		}
		d := text.Levenshtein(word, cand)
		if s > bestScore || d < bestDist {
			bestScore, bestDist, best = s, d, cand
		}
	}
	if best == "" || bestScore < minCorrectionScore {
		return Correction{}, false
	}
	return Correction{Parts: []string{best}, Score: bestScore}, true
}
