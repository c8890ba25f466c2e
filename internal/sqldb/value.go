// Package sqldb implements the in-memory relational engine that backs
// CQAds, standing in for the paper's MySQL deployment. It provides
// tables with hash primary indexes on Type I attributes, secondary
// hash indexes on Type II attributes and ordered indexes on Type III
// attributes: the access paths the generated SQL drives. The paper's
// length-3 substring index (Sec. 4.5) is left out, because no
// generated statement has a substring predicate.
package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a single column value: either a string (categorical) or a
// number (quantitative). The zero Value is the SQL NULL.
type Value struct {
	s     string
	n     float64
	isNum bool
	valid bool
}

// Null is the SQL NULL value.
var Null = Value{}

// String constructs a categorical value. The value is stored
// lower-cased so that equality comparisons are case-insensitive, as
// ads search is.
func String(s string) Value {
	return Value{s: strings.ToLower(s), valid: true}
}

// Number constructs a quantitative value.
func Number(n float64) Value {
	return Value{n: n, isNum: true, valid: true}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return !v.valid }

// IsNumber reports whether v holds a number.
func (v Value) IsNumber() bool { return v.valid && v.isNum }

// IsString reports whether v holds a string.
func (v Value) IsString() bool { return v.valid && !v.isNum }

// Str returns the string content. It returns "" for non-strings.
func (v Value) Str() string {
	if !v.IsString() {
		return ""
	}
	return v.s
}

// Num returns the numeric content. For a string value that parses as
// a number it returns the parsed value, so that comparisons like
// year = "2004" behave as users expect.
func (v Value) Num() float64 {
	if v.IsNumber() {
		return v.n
	}
	if v.IsString() {
		if f, err := strconv.ParseFloat(v.s, 64); err == nil {
			return f
		}
	}
	return 0
}

// Equal reports value equality. String comparison is exact (values
// are already lower-cased); numeric comparison is exact equality.
// A string and a number compare equal when the string parses to the
// same number.
func (v Value) Equal(o Value) bool {
	if !v.valid || !o.valid {
		return false
	}
	if v.isNum == o.isNum {
		if v.isNum {
			return v.n == o.n
		}
		return v.s == o.s
	}
	// Mixed: try numeric coercion.
	a, aok := v.tryNum()
	b, bok := o.tryNum()
	return aok && bok && a == b
}

func (v Value) tryNum() (float64, bool) {
	if v.IsNumber() {
		return v.n, true
	}
	if v.IsString() && mayBeNumber(v.s) {
		f, err := strconv.ParseFloat(v.s, 64)
		return f, err == nil
	}
	return 0, false
}

// floatBytes are the only bytes strconv.ParseFloat accepts: digits,
// signs, the point, digit-separating underscores, and in either case
// the letters of hex digits, exponents, the 0x prefix, "inf",
// "infinity" and "nan".
const floatBytes = "0123456789+-._abcdefinptxyABCDEFINPTXY"

// mayBeNumber reports whether strconv.ParseFloat could accept s: after
// an optional sign, s starts with a digit or a point, or spells an
// infinity or NaN, and every byte of s is one of floatBytes. Ordinary
// categorical values ("honda", "2 door", "4 wheel drive") fail it
// without the parse, whose error allocates.
func mayBeNumber(s string) bool {
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	if c := s[0]; c >= '0' && c <= '9' || c == '.' {
		for i := 1; i < len(s); i++ {
			if strings.IndexByte(floatBytes, s[i]) < 0 {
				return false
			}
		}
		return true
	}
	return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan")
}

// Compare returns -1, 0 or +1 ordering v against o. Numbers order
// numerically; strings lexicographically; NULL sorts before
// everything; a number sorts before a non-numeric string.
func (v Value) Compare(o Value) int {
	switch {
	case !v.valid && !o.valid:
		return 0
	case !v.valid:
		return -1
	case !o.valid:
		return 1
	}
	a, aok := v.tryNum()
	b, bok := o.tryNum()
	if aok && bok {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if aok != bok {
		if aok {
			return -1
		}
		return 1
	}
	return strings.Compare(v.s, o.s)
}

// String implements fmt.Stringer.
func (v Value) String() string {
	switch {
	case !v.valid:
		return "NULL"
	case v.isNum:
		return strconv.FormatFloat(v.n, 'f', -1, 64)
	default:
		return v.s
	}
}

// GoString implements fmt.GoStringer for test diagnostics.
func (v Value) GoString() string {
	switch {
	case !v.valid:
		return "sqldb.Null"
	case v.isNum:
		return fmt.Sprintf("sqldb.Number(%g)", v.n)
	default:
		return fmt.Sprintf("sqldb.String(%q)", v.s)
	}
}
