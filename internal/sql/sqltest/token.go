package sqltest

import (
	"fmt"
	"strconv"
	"strings"
)

// tokenKind enumerates the lexical classes of the SQL subset.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // ( ) , * =  < > <= >=
)

// token is one lexical unit.
type token struct {
	kind tokenKind
	text string // keywords upper-cased, idents lower-cased
	num  float64
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "IN": true, "BETWEEN": true, "ORDER": true,
	"BY": true, "LIMIT": true, "ASC": true, "DESC": true, "NULL": true,
	"IS": true,
}

// lex tokenizes the input. It returns a descriptive error with the
// byte position of the offending character.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for j < len(input) {
				if input[j] == '\'' {
					if j+1 < len(input) && input[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(input[j])
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("sql: unterminated string literal at %d", i)
			}
			toks = append(toks, token{kind: tokString, text: strings.ToLower(sb.String()), pos: i})
			i = j + 1
		case c >= '0' && c <= '9' ||
			(c == '.' && i+1 < len(input) && input[i+1] >= '0' && input[i+1] <= '9') ||
			(c == '-' && i+1 < len(input) && (input[i+1] >= '0' && input[i+1] <= '9' || input[i+1] == '.')):
			// Numeric literal, optionally negative (the subset has no
			// arithmetic, so '-' before a digit is always a sign). The
			// whole span goes through strconv.ParseFloat, so a literal
			// reads back as the correctly rounded double sql.Select
			// rendered.
			j := i + 1
			for j < len(input) && (input[j] >= '0' && input[j] <= '9' || input[j] == '.') {
				j++
			}
			v, err := strconv.ParseFloat(input[i:j], 64)
			if err != nil {
				return nil, fmt.Errorf("sql: malformed number %q at %d", input[i:j], i)
			}
			toks = append(toks, token{kind: tokNumber, text: input[i:j], num: v, pos: i})
			i = j
		case isIdentStart(rune(c)):
			j := i
			for j < len(input) && isIdentPart(rune(input[j])) {
				j++
			}
			word := input[i:j]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, token{kind: tokKeyword, text: upper, pos: i})
			} else {
				toks = append(toks, token{kind: tokIdent, text: strings.ToLower(word), pos: i})
			}
			i = j
		case c == '<' || c == '>':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{kind: tokSymbol, text: input[i : i+2], pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
				i++
			}
		case c == '=' || c == '(' || c == ')' || c == ',' || c == '*' || c == '.':
			toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(input)})
	return toks, nil
}

// Identifiers are ASCII-only: the lexer walks bytes, and admitting
// high bytes as letters would accept identifiers that are not valid
// UTF-8 and do not survive a render/re-parse round trip.
func isIdentStart(r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || (r >= '0' && r <= '9')
}
