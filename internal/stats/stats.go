// Package stats implements the descriptive statistics used by the HPAS
// feature extractor and experiment reports: moments, order statistics,
// and simple linear regression over time series values.
//
// All functions treat NaN inputs as ordinary values (they propagate); the
// simulator never produces NaN, so no special filtering is done here.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (divides by n), or 0 for
// fewer than two values.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks, matching numpy's default method.
// It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// Percentiles computes several percentiles with a single sort.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = PercentileSorted(sorted, p)
	}
	return out
}

// PercentileSorted is Percentile on a series that is already sorted
// ascending and not empty, for callers that sort once into their own
// buffer (internal/features).
func PercentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Skewness returns the sample skewness (third standardized moment) of xs,
// or 0 when the variance is 0 or fewer than three values are given.
func Skewness(xs []float64) float64 {
	if len(xs) < 3 {
		return 0
	}
	m := Mean(xs)
	sd := StdDev(xs)
	if sd == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		d := (x - m) / sd
		s += d * d * d
	}
	return s / float64(len(xs))
}

// Kurtosis returns the excess kurtosis (fourth standardized moment minus 3)
// of xs, or 0 when the variance is 0 or fewer than four values are given.
func Kurtosis(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	m := Mean(xs)
	sd := StdDev(xs)
	if sd == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		d := (x - m) / sd
		s += d * d * d * d
	}
	return s/float64(len(xs)) - 3
}

// LinRegress fits y = slope*x + intercept by least squares over the index
// (x = 0,1,2,...). It returns 0,meany for fewer than two points.
func LinRegress(ys []float64) (slope, intercept float64) {
	n := float64(len(ys))
	if len(ys) < 2 {
		return 0, Mean(ys)
	}
	// x values are 0..n-1: closed-form sums.
	sumX := n * (n - 1) / 2
	sumXX := n * (n - 1) * (2*n - 1) / 6
	var sumY, sumXY float64
	for i, y := range ys {
		sumY += y
		sumXY += float64(i) * y
	}
	den := n*sumXX - sumX*sumX
	if den == 0 {
		return 0, Mean(ys)
	}
	slope = (n*sumXY - sumX*sumY) / den
	intercept = (sumY - slope*sumX) / n
	return slope, intercept
}

// Diff returns the first difference of xs (length len(xs)-1), or nil for
// fewer than two values.
func Diff(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		out[i-1] = xs[i] - xs[i-1]
	}
	return out
}

// GeoMean returns the geometric mean of positive values, skipping values
// <= 0. Returns 0 if no positive values exist.
func GeoMean(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}
