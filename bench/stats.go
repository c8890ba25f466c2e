package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 < p <= 1) of samples by the
// nearest-rank rule: the smallest value with at least p of the sample
// at or below it. It sorts samples in place; an empty sample reads 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// median returns the middle value (mean of the middle two for an even
// count) without reordering its argument; an empty input reads 0.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles placed as Python's
// statistics.quantiles(values, n=4) places them (the "exclusive"
// method) — the acceptance rule for run-to-run steadiness. Fewer than
// two values, or a zero median, read 0.
func quartileSpread(values []float64) float64 {
	n := len(values)
	med := median(values)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quart := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
