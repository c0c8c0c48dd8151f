package main

import (
	"math"
	"slices"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile is the nearest-rank percentile of sorted samples, 0 when
// there are none.
func percentile(s []int64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// median of float samples (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// ratio is a/b, or 0 when b is 0 (the workload has none of that class).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
