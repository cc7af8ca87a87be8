package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample, or the mean of the two middle
// samples; 0 for an empty set.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least p percent of the samples at or below it.
func percentile(v []float64, p float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailMinBeyond is how many samples must lie beyond a percentile for it
// to be reported: fewer and the figure is one or two outliers, not a tail.
const tailMinBeyond = 10

// tailPercent is the percentile reported as the tail of n samples: the
// 95th when at least tailMinBeyond of them lie beyond it (n >= 200), and
// otherwise the 50th — the highest a small sample supports.
func tailPercent(n int) float64 {
	if n-int(math.Ceil(0.95*float64(n))) >= tailMinBeyond {
		return 95
	}
	return 50
}
