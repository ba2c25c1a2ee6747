package main

import (
	"math"
	"slices"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so the number is never set by a
// handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted and
// whether the percentile rule allows reporting it.
func percentile(sorted []int64, p float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n-1-idx >= minBeyond
}

// tail returns the p-quantile when the percentile rule allows it, and
// otherwise the highest quantile that still has minBeyond samples beyond it.
// q is the quantile actually returned; ok is false when even the median
// cannot be reported.
func tail(sorted []int64, p float64) (v int64, q float64, ok bool) {
	if v, ok := percentile(sorted, p); ok {
		return v, p, true
	}
	idx := len(sorted) - 1 - minBeyond
	if idx < len(sorted)/2 {
		return 0, 0, false
	}
	return sorted[idx], float64(idx+1) / float64(len(sorted)), true
}

// median returns the median of xs (mean of the middle two when even) and
// zero for an empty slice.  xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the nearest-rank p-quantile (0 < p < 1) of xs, which
// must not be empty and is not modified.
func quantile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(idx, len(s)-1))]
}

// spreadRatio is the interquartile range of xs as a share of their median:
// the run's own noise floor, measured the way run-to-run spread is.
func spreadRatio(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 4 || m == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return (q(0.75) - q(0.25)) / m
}

// ratio is a ÷ b, and zero when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
