// Package stats provides the summary statistics used by the benchmark
// harnesses and fairness analyses: medians (the paper reports medians
// of 7 runs), percentiles, Jain's fairness index, and admission-count
// disparity ratios (§9.2's 2× bound).
package stats

import (
	"math"
	"sort"
)

// Median returns the median of xs (mean of the two central elements
// for even lengths). It returns NaN for empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0
// for fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Min returns the smallest element, or NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element, or NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// JainIndex computes Jain's fairness index (sum x)^2 / (n * sum x^2):
// 1.0 is perfectly fair, 1/n is maximally unfair. Returns NaN for empty
// input and 1 for an all-zero allocation.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// DisparityRatio returns max/min of the per-participant tallies —
// the paper's long-term unfairness metric, bounded at 2× for the
// palindromic schedules of §9.2. A zero minimum yields +Inf; empty
// input yields NaN.
func DisparityRatio(counts []int64) float64 {
	if len(counts) == 0 {
		return math.NaN()
	}
	mn, mx := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	if mn == 0 {
		if mx == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(mx) / float64(mn)
}
