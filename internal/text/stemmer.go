package text

import "strings"

// Stem reduces an English word to its grammatical root using the
// Porter stemming algorithm (Porter, 1980). The WS-matrix construction
// (Sec. 4.3.2) and the negation detector ("excluding" → "exclud")
// both operate on stemmed words.
func Stem(word string) string {
	w := strings.ToLower(word)
	if len(w) <= 2 {
		return w
	}
	s := stemState{b: []byte(w)}
	s.k = len(s.b) - 1
	s.step1ab()
	s.step1c()
	s.step2()
	s.step3()
	s.step4()
	s.step5()
	return string(s.b[:s.k+1])
}

// stemState carries the working buffer of the Porter algorithm.
// b[0..k] is the word being stemmed; j is a general offset used by the
// measure-based condition helpers.
type stemState struct {
	b []byte
	k int
	j int
}

func (s *stemState) cons(i int) bool {
	switch s.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.cons(i - 1)
	}
	return true
}

// m measures the number of consonant-vowel sequences in b[0..j].
func (s *stemState) m() int {
	n := 0
	i := 0
	for {
		if i > s.j {
			return n
		}
		if !s.cons(i) {
			break
		}
		i++
	}
	i++
	for {
		for {
			if i > s.j {
				return n
			}
			if s.cons(i) {
				break
			}
			i++
		}
		i++
		n++
		for {
			if i > s.j {
				return n
			}
			if !s.cons(i) {
				break
			}
			i++
		}
		i++
	}
}

func (s *stemState) vowelInStem() bool {
	for i := 0; i <= s.j; i++ {
		if !s.cons(i) {
			return true
		}
	}
	return false
}

func (s *stemState) doubleC(i int) bool {
	if i < 1 {
		return false
	}
	if s.b[i] != s.b[i-1] {
		return false
	}
	return s.cons(i)
}

// cvc reports whether b[i-2..i] is consonant-vowel-consonant and the
// final consonant is not w, x or y.
func (s *stemState) cvc(i int) bool {
	if i < 2 || !s.cons(i) || s.cons(i-1) || !s.cons(i-2) {
		return false
	}
	switch s.b[i] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func (s *stemState) ends(suffix string) bool {
	l := len(suffix)
	o := s.k - l + 1
	if o < 0 {
		return false
	}
	if string(s.b[o:s.k+1]) != suffix {
		return false
	}
	s.j = s.k - l
	return true
}

func (s *stemState) setTo(repl string) {
	l := len(repl)
	copy(s.b[s.j+1:], repl)
	s.k = s.j + l
}

func (s *stemState) r(repl string) {
	if s.m() > 0 {
		s.setTo(repl)
	}
}

func (s *stemState) step1ab() {
	if s.b[s.k] == 's' {
		switch {
		case s.ends("sses"):
			s.k -= 2
		case s.ends("ies"):
			s.setTo("i")
		case s.b[s.k-1] != 's':
			s.k--
		}
	}
	if s.ends("eed") {
		if s.m() > 0 {
			s.k--
		}
	} else if (s.ends("ed") || s.ends("ing")) && s.vowelInStem() {
		s.k = s.j
		switch {
		case s.ends("at"):
			s.setTo("ate")
		case s.ends("bl"):
			s.setTo("ble")
		case s.ends("iz"):
			s.setTo("ize")
		case s.doubleC(s.k):
			s.k--
			switch s.b[s.k] {
			case 'l', 's', 'z':
				s.k++
			}
		default:
			if s.m() == 1 && s.cvc(s.k) {
				s.j = s.k
				s.setTo("e")
			}
		}
	}
}

func (s *stemState) step1c() {
	if s.ends("y") && s.vowelInStem() {
		s.b[s.k] = 'i'
	}
}

var step2Rules = []struct{ suf, repl string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
	{"anci", "ance"}, {"izer", "ize"}, {"bli", "ble"},
	{"alli", "al"}, {"entli", "ent"}, {"eli", "e"},
	{"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"},
	{"fulness", "ful"}, {"ousness", "ous"}, {"aliti", "al"},
	{"iviti", "ive"}, {"biliti", "ble"}, {"logi", "log"},
}

func (s *stemState) step2() {
	for _, rule := range step2Rules {
		if s.ends(rule.suf) {
			s.r(rule.repl)
			return
		}
	}
}

var step3Rules = []struct{ suf, repl string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"},
	{"iciti", "ic"}, {"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func (s *stemState) step3() {
	for _, rule := range step3Rules {
		if s.ends(rule.suf) {
			s.r(rule.repl)
			return
		}
	}
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func (s *stemState) step4() {
	for _, suf := range step4Suffixes {
		if !s.ends(suf) {
			continue
		}
		if suf == "ion" {
			if s.j < 0 || (s.b[s.j] != 's' && s.b[s.j] != 't') {
				continue
			}
		}
		if s.m() > 1 {
			s.k = s.j
		}
		return
	}
}

func (s *stemState) step5() {
	s.j = s.k
	if s.b[s.k] == 'e' {
		a := s.m()
		if a > 1 || (a == 1 && !s.cvc(s.k-1)) {
			s.k--
		}
	}
	s.j = s.k
	if s.b[s.k] == 'l' && s.doubleC(s.k) && s.m() > 1 {
		s.k--
	}
}
