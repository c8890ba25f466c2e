// Package text provides the text-processing substrate used throughout
// CQAds: tokenization, stopword removal, Porter stemming, and the
// string-similarity primitives (similar_text, Levenshtein distance)
// that drive spelling correction in the tagging trie.
package text

import (
	"strings"
	"unicode"
)

// Token is a single lexical unit extracted from a question or document.
type Token struct {
	// Text is the raw token text, lower-cased.
	Text string
	// Start is the byte offset of the token in the original input.
	Start int
	// IsNumber reports whether the token parses as a numeric quantity
	// (possibly with a magnitude suffix such as "20k" or "$5000").
	IsNumber bool
	// Value is the parsed numeric value when IsNumber is true.
	Value float64
}

// Tokenize splits s into lower-cased tokens. Punctuation separates
// tokens, except that '-', '.', '$' and ',' are handled specially:
// "4-door" splits into "4" and "door", "$5,000" becomes a single
// numeric token with value 5000, and "2.5k" parses as 2500.
func Tokenize(s string) []Token {
	var tokens []Token
	runes := []rune(s)
	i := 0
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '$' || unicode.IsDigit(r):
			tok, next := scanNumber(runes, i)
			tokens = append(tokens, tok)
			i = next
		case unicode.IsLetter(r):
			start := i
			for i < len(runes) && (unicode.IsLetter(runes[i]) || unicode.IsDigit(runes[i])) {
				i++
			}
			word := strings.ToLower(string(runes[start:i]))
			tokens = append(tokens, Token{Text: word, Start: start})
		default:
			// Punctuation: skip, acting as a separator.
			i++
		}
	}
	return tokens
}

// scanNumber scans a numeric token starting at position i. It accepts
// an optional leading '$', digits with ',' thousand separators, an
// optional decimal part, and an optional trailing magnitude suffix
// ('k'/'K' = 1e3, 'm'/'M' = 1e6). Mixed alphanumerics that are not
// magnitudes (e.g. "2dr") are returned as word tokens so that
// shorthand detection can process them.
func scanNumber(runes []rune, i int) (Token, int) {
	start := i
	hasDollar := false
	if runes[i] == '$' {
		hasDollar = true
		i++
	}
	var value float64
	sawDigit := false
	for i < len(runes) && (unicode.IsDigit(runes[i]) || runes[i] == ',') {
		if unicode.IsDigit(runes[i]) {
			// float64(x*y) rounds the product, so no CPU fuses it with the add.
			value = float64(value*10) + float64(runes[i]-'0')
			sawDigit = true
		}
		i++
	}
	if i < len(runes) && runes[i] == '.' && i+1 < len(runes) && unicode.IsDigit(runes[i+1]) {
		i++
		frac := 0.1
		for i < len(runes) && unicode.IsDigit(runes[i]) {
			value += float64(float64(runes[i]-'0') * frac)
			frac /= 10
			i++
		}
	}
	if !sawDigit {
		// Lone '$' with no digits: treat as a word token "$".
		return Token{Text: "$", Start: start}, i
	}
	// Hyphenated continuation ("2-dr", "4-door") joins into one word
	// token so shorthand detection sees the whole notation.
	if i < len(runes) && runes[i] == '-' && i+1 < len(runes) && unicode.IsLetter(runes[i+1]) {
		i++ // consume '-'
		for i < len(runes) && unicode.IsLetter(runes[i]) {
			i++
		}
		word := strings.ToLower(strings.ReplaceAll(string(runes[start:i]), "-", ""))
		if hasDollar {
			word = strings.TrimPrefix(word, "$")
		}
		return Token{Text: word, Start: start}, i
	}
	// Magnitude suffix or alphanumeric continuation ("2dr", "4x4").
	if i < len(runes) && unicode.IsLetter(runes[i]) {
		letterStart := i
		for i < len(runes) && (unicode.IsLetter(runes[i]) || unicode.IsDigit(runes[i])) {
			i++
		}
		suffix := strings.ToLower(string(runes[letterStart:i]))
		switch suffix {
		case "k":
			value *= 1e3
		case "m":
			value *= 1e6
		default:
			// "2dr", "4wd": return the whole run as a word token.
			word := strings.ToLower(string(runes[start:i]))
			if hasDollar {
				word = strings.TrimPrefix(word, "$")
			}
			return Token{Text: word, Start: start}, i
		}
	}
	raw := strings.ToLower(string(runes[start:i]))
	return Token{Text: raw, Start: start, IsNumber: true, Value: value}, i
}

// Words returns only the token texts of Tokenize(s).
func Words(s string) []string {
	toks := Tokenize(s)
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}
