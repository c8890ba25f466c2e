package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := func() []float64 { return []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} }
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.50, 5}, {0.90, 9}, {0.99, 10}, {0.999, 10}, {0.10, 1}, {0.01, 1}} {
		if got := percentile(ten(), c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{3, 1, 2}
	if got := median(in); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
	if in[0] != 3 {
		t.Errorf("median reordered its argument: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) gives
// [2.75, 5.5, 8.25]; quantiles([10, 20], n=4) gives [7.5, 15.0, 22.5].
func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	got := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
	got = quartileSpread([]float64{10, 20})
	if want := (22.5 - 7.5) / 15; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(10,20) = %g, want %g", got, want)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{70, 100, 130, 85, 115}
	for _, c := range []struct {
		name string
		a, b []float64
		m    metricSpec
		want string
	}{
		{"same", steady, steady, lower, "ok"},
		{"slower within bound", steady, []float64{108, 109, 108}, lower, "ok"},
		{"slower past bound", steady, []float64{112, 113, 111}, lower, "worse"},
		{"throughput down past bound", steady, []float64{88, 89, 87}, higher, "worse"},
		{"throughput up", steady, []float64{150, 151}, higher, "ok"},
		{"noisy base, overlapping", noisy, []float64{100, 101}, lower, "unresolved"},
		{"noisy base, every run better", noisy, []float64{60, 65}, lower, "ok"},
		{"nothing to compare", steady, nil, lower, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}
