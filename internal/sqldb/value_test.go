package sqldb

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestValueBasics(t *testing.T) {
	if !Null.IsNull() {
		t.Error("Null.IsNull() = false")
	}
	s := String("Blue")
	if !s.IsString() || s.Str() != "blue" {
		t.Errorf("String(Blue) = %#v (values are lower-cased)", s)
	}
	n := Number(42)
	if !n.IsNumber() || n.Num() != 42 {
		t.Errorf("Number(42) = %#v", n)
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{String("blue"), String("Blue"), true},
		{String("blue"), String("red"), false},
		{Number(5), Number(5), true},
		{Number(5), Number(6), false},
		{Number(2004), String("2004"), true}, // numeric coercion
		{String("2004"), Number(2004), true},
		{String("abc"), Number(1), false},
		{Null, Null, false}, // SQL semantics: NULL != NULL
		{Null, Number(1), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%#v.Equal(%#v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Number(1), Number(2), -1},
		{Number(2), Number(1), 1},
		{Number(2), Number(2), 0},
		{String("a"), String("b"), -1},
		{Null, Number(0), -1},
		{Number(0), Null, 1},
		{Null, Null, 0},
		{Number(10), String("9"), 1},    // numeric coercion
		{Number(10), String("abc"), -1}, // numbers before words
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%#v.Compare(%#v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		return Number(a).Compare(Number(b)) == -Number(b).Compare(Number(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	if Null.String() != "NULL" {
		t.Errorf("Null.String() = %q", Null.String())
	}
	if Number(5000).String() != "5000" {
		t.Errorf("Number(5000).String() = %q", Number(5000).String())
	}
	if Number(2.5).String() != "2.5" {
		t.Errorf("Number(2.5).String() = %q", Number(2.5).String())
	}
	if String("Red").String() != "red" {
		t.Errorf("String(Red).String() = %q", String("Red").String())
	}
}

func TestValueNumParsesStrings(t *testing.T) {
	if got := String("2004").Num(); got != 2004 {
		t.Errorf("String(2004).Num() = %g", got)
	}
	if got := String("abc").Num(); got != 0 {
		t.Errorf("String(abc).Num() = %g", got)
	}
	if got := Null.Num(); got != 0 {
		t.Errorf("Null.Num() = %g", got)
	}
}

// FuzzMayBeNumber holds mayBeNumber to a necessary condition of
// strconv.ParseFloat: whenever the parse succeeds, the pre-check let it
// through, so tryNum answers as an unguarded parse would.
func FuzzMayBeNumber(f *testing.F) {
	for _, s := range []string{
		"2 door", "4 wheel drive", "1e5", "0x1p-2", "0X1.8P+1", "+Inf",
		"-infinity", "nan", "NaN", ".5", "-0", "1_000", "0x_1p0", "15,000",
		"9000 ", " 9000", "4wd", "", "+", "e5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if _, err := strconv.ParseFloat(s, 64); err == nil && !mayBeNumber(s) {
			t.Fatalf("ParseFloat accepts %q but mayBeNumber rejects it", s)
		}
	})
}

// TestMayBeNumberRejectsMultiWordValues: categorical values that start
// with a digit never reach ParseFloat, whose error allocates.
func TestMayBeNumberRejectsMultiWordValues(t *testing.T) {
	for _, s := range []string{"2 door", "4 wheel drive", "15,000", "4wd"} {
		if mayBeNumber(s) {
			t.Errorf("mayBeNumber(%q) = true", s)
		}
	}
}
