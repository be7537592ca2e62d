package main

import (
	"math"
	"sort"

	"hpas/internal/stats"
)

// quietDecile is the one estimator behind every timing metric: the
// 10th percentile of a step's repeats. Interference on a shared host is
// bursty and additive, so the low tail of many short, identical slices
// is the program's own time and repeats from run to run, while medians
// and means move with the host (README, "Why the quiet decile").
func quietDecile(xs []float64) float64 { return stats.Percentile(xs, 10) }

// cycleTime is a cycle's quiet time: the sum of its steps' quiet
// deciles. Summing per-step deciles instead of taking the decile of
// whole-cycle sums keeps one disturbed step from discarding the quiet
// measurements of the steps around it.
func cycleTime(steps [][]float64) float64 {
	var sum float64
	for _, xs := range steps {
		if len(xs) > 0 {
			sum += quietDecile(xs)
		}
	}
	return sum
}

// meanQuiet averages the quiet deciles of the non-empty sample sets: the
// first-result time of a cycle whose ops have different inputs.
func meanQuiet(sets [][]float64) float64 {
	var sum float64
	n := 0
	for _, xs := range sets {
		if len(xs) > 0 {
			sum += quietDecile(xs)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// tailPercentile is the highest percentile that still has at least ten
// of the n samples beyond it; with fewer than twenty samples the median
// is all the data supports.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return 100 * (1 - 10/float64(n))
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with quartiles as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method) —
// the figure the benchmark driver gates on. It needs two values.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	quartile := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based ranks, clamped to the data.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	med := stats.Median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(quartile(3)-quartile(1)) / math.Abs(med)
}

// rangeSpread is (max−min)/median, reported beside quartileSpread when
// there are too few sets for quartiles to mean much.
func rangeSpread(values []float64) float64 {
	med := stats.Median(values)
	if len(values) == 0 || med == 0 {
		return 0
	}
	return (stats.Max(values) - stats.Min(values)) / math.Abs(med)
}
