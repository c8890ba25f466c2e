package text

import (
	"testing"
	"testing/quick"
)

func TestSimilarTextBasics(t *testing.T) {
	if got := SimilarText("accord", "accord"); got != 1 {
		t.Errorf("identical strings = %g, want 1", got)
	}
	if got := SimilarText("", ""); got != 1 {
		t.Errorf("empty strings = %g, want 1", got)
	}
	if got := SimilarText("abc", ""); got != 0 {
		t.Errorf("one empty = %g, want 0", got)
	}
	if got := SimilarText("abc", "xyz"); got != 0 {
		t.Errorf("disjoint = %g, want 0", got)
	}
}

func TestSimilarTextTypoScoresHigh(t *testing.T) {
	// The paper's example: "accorr" should be repaired to "accord".
	typo := SimilarText("accorr", "accord")
	other := SimilarText("accorr", "camry")
	if typo <= other {
		t.Errorf("typo %g should beat unrelated %g", typo, other)
	}
	if typo < 0.7 {
		t.Errorf("typo similarity = %g, want >= 0.7", typo)
	}
}

func TestSimilarTextProperties(t *testing.T) {
	// The score is bounded in [0,1] and maximal exactly on equal
	// strings. (Like PHP's similar_text, the score is not strictly
	// symmetric when different LCS tie-breaks are possible, so
	// symmetry is not asserted.)
	f := func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		s := SimilarText(a, b)
		if s < 0 || s > 1 {
			return false
		}
		if a == b && s != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSimilarTextRuneSafety: multibyte keywords compare on whole
// characters. Byte-based matching would count the shared UTF-8 lead
// byte of two different accented characters as a match and use byte
// lengths in the normalization, skewing misspelling repair for
// non-ASCII make/model names.
func TestSimilarTextRuneSafety(t *testing.T) {
	// "é" (C3 A9) and "è" (C3 A8) share a lead byte but are different
	// characters: similarity must be 0, not the byte-level 0.5.
	if got := SimilarText("é", "è"); got != 0 {
		t.Errorf(`SimilarText("é", "è") = %g, want 0`, got)
	}
	if got := SimilarText("café", "café"); got != 1 {
		t.Errorf(`identical multibyte strings = %g, want 1`, got)
	}
	// One differing character out of four: 2*3/(4+4) with rune
	// lengths. Byte lengths (5+5) would give 0.6 at best.
	if got, want := SimilarText("café", "cafe"), 0.75; got != want {
		t.Errorf(`SimilarText("café", "cafe") = %g, want %g`, got, want)
	}
	// Misspelling repair over accented model names: the near-match
	// must beat the unrelated value.
	typo := SimilarText("citroen", "citroën")
	other := SimilarText("citroen", "škoda")
	if typo <= other || typo < 0.8 {
		t.Errorf("citroën repair: typo %g, unrelated %g", typo, other)
	}
}

// TestLevenshteinRuneSafety: edits count characters, not bytes.
func TestLevenshteinRuneSafety(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"café", "cafe", 1}, // é→e is one substitution, not two byte edits
		{"citroën", "citroen", 1},
		{"škoda", "skoda", 1},
		{"é", "è", 1},
		{"日本語", "日本", 1}, // one 3-byte character dropped
		{"日本語", "日本語", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestIsSubsequenceRuneSafety: shorthand matching treats a multibyte
// character as one unit.
func TestIsSubsequenceRuneSafety(t *testing.T) {
	cases := []struct {
		n, h string
		want bool
	}{
		{"cfé", "café", true},
		{"café", "ca fé 2000", true},
		{"é", "è", false}, // shared lead byte is not a shared character
		{"日語", "日本語", true},
		{"語日", "日本語", false},
	}
	for _, c := range cases {
		if got := IsSubsequence(c.n, c.h); got != c.want {
			t.Errorf("IsSubsequence(%q,%q) = %v, want %v", c.n, c.h, got, c.want)
		}
	}
}

func TestLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"abc", "", 3},
		{"same", "same", 0},
		{"honda", "hondda", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	sym := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		d := Levenshtein(a, b)
		if d != Levenshtein(b, a) {
			return false
		}
		// Distance bounded by the longer string's length (in runes —
		// the unit the distance is now defined on).
		max := len([]rune(a))
		if n := len([]rune(b)); n > max {
			max = n
		}
		// Identity of indiscernibles, over the rune decoding (byte
		// truncation above can leave invalid UTF-8 tails that decode
		// to the same replacement runes).
		if (d == 0) != (string([]rune(a)) == string([]rune(b))) {
			return false
		}
		return d <= max
	}
	if err := quick.Check(sym, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		for _, s := range []*string{&a, &b, &c} {
			if len(*s) > 15 {
				*s = (*s)[:15]
			}
		}
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIsSubsequence(t *testing.T) {
	cases := []struct {
		n, h string
		want bool
	}{
		{"2dr", "2 door", true},
		{"4wd", "4 wheel drive", true},
		{"", "anything", true},
		{"abc", "abc", true},
		{"acb", "abc", false},
		{"abc", "ab", false},
	}
	for _, c := range cases {
		if got := IsSubsequence(c.n, c.h); got != c.want {
			t.Errorf("IsSubsequence(%q,%q) = %v, want %v", c.n, c.h, got, c.want)
		}
	}
}

func TestIsSubsequenceProperties(t *testing.T) {
	// Every prefix of s is a subsequence of s; s is one of itself.
	// Prefixes are cut on rune boundaries — the unit the subsequence
	// rule is defined on (a mid-rune byte cut is not a prefix of any
	// character sequence).
	f := func(s string) bool {
		r := []rune(s)
		if len(r) > 30 {
			r = r[:30]
			s = string(r)
		}
		if !IsSubsequence(s, s) {
			return false
		}
		return IsSubsequence(string(r[:len(r)/2]), s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
