package text

import (
	"reflect"
	"testing"
)

func TestTokenizeWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Do you have a 2 door red BMW?", []string{"do", "you", "have", "a", "2", "door", "red", "bmw"}},
		{"Cheapest 2dr mazda", []string{"cheapest", "2dr", "mazda"}},
		{"4-door sedan", []string{"4door", "sedan"}},
		{"one,two;three", []string{"one", "two", "three"}},
	}
	for _, c := range cases {
		got := Words(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Words(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, empty := range []string{"", "   ", "?!."} {
		if got := Words(empty); len(got) != 0 {
			t.Errorf("Words(%q) = %v, want empty", empty, got)
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := []struct {
		in    string
		value float64
	}{
		{"$5000", 5000},
		{"$5,000", 5000},
		{"20k", 20000},
		{"20K", 20000},
		{"1.5m", 1.5e6},
		{"2.5", 2.5},
		{"15,000", 15000},
	}
	for _, c := range cases {
		toks := Tokenize(c.in)
		if len(toks) != 1 {
			t.Fatalf("Tokenize(%q) = %d tokens, want 1", c.in, len(toks))
		}
		if !toks[0].IsNumber {
			t.Errorf("Tokenize(%q): not a number token", c.in)
			continue
		}
		if toks[0].Value != c.value {
			t.Errorf("Tokenize(%q) value = %g, want %g", c.in, toks[0].Value, c.value)
		}
	}
}

func TestTokenizeMixedAlphanumeric(t *testing.T) {
	toks := Tokenize("2dr")
	if len(toks) != 1 || toks[0].IsNumber {
		t.Fatalf("Tokenize(2dr) = %+v, want single word token", toks)
	}
	if toks[0].Text != "2dr" {
		t.Errorf("text = %q, want 2dr", toks[0].Text)
	}
}

func TestTokenizeDollarPrefixKept(t *testing.T) {
	toks := Tokenize("less than $2000")
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3", len(toks))
	}
	num := toks[2]
	if !num.IsNumber || num.Value != 2000 {
		t.Fatalf("number token = %+v", num)
	}
	if num.Text[0] != '$' {
		t.Errorf("dollar prefix lost: %q", num.Text)
	}
}

func TestTokenizeHyphenJoin(t *testing.T) {
	for in, want := range map[string]string{
		"2-dr":   "2dr",
		"4-door": "4door",
	} {
		toks := Tokenize(in)
		if len(toks) != 1 || toks[0].Text != want {
			t.Errorf("Tokenize(%q) = %+v, want one token %q", in, toks, want)
		}
	}
}

func TestTokenizeOffsets(t *testing.T) {
	toks := Tokenize("red bmw")
	if toks[0].Start != 0 || toks[1].Start != 4 {
		t.Errorf("offsets = %d, %d; want 0, 4", toks[0].Start, toks[1].Start)
	}
}
