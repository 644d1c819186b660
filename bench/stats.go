package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is a handful of outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending-sorted sample and how many samples lie strictly beyond that
// rank. Callers refuse to report the figure when beyond < minBeyond.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	// The epsilon keeps 99.9 % of 1000 at rank 999 despite binary fractions.
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1], len(sorted) - rank
}

// median returns the middle of a sample (mean of the two middles for an
// even count); NaN for an empty one. It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

func sum(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}
