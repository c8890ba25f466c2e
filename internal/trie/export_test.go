package trie

import "sort"

// HasPrefix reports whether any stored phrase starts with prefix.
func (t *Trie) HasPrefix(prefix string) bool {
	return t.walk(prefix) != nil
}

// Words returns every stored phrase, sorted.
func (t *Trie) Words() []string {
	var out []string
	collect(t.root, &out)
	sort.Strings(out)
	return out
}
