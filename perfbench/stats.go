package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above the tail percentile.
const tailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLatency returns the highest order statistic with tailBeyond samples
// above it, and its percentile. The caller ensures len(xs) > tailBeyond.
func tailLatency(xs []float64) (value, percentile float64) {
	s := sorted(xs)
	k := len(s) - tailBeyond // 1-based rank
	return s[k-1], 100 * float64(k) / float64(len(s))
}
