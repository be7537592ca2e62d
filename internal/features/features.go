// Package features turns monitored metric time series into the fixed-
// length statistical feature vectors consumed by the diagnosis
// classifiers, following the paper's framework (Tuncer et al.): for each
// metric, a set of order statistics and moments computed over the
// observation window.
package features

import (
	"math"
	"sort"

	"hpas/internal/stats"
	"hpas/internal/trace"
)

// perSeries is the list of statistics extracted from each metric series,
// in order. Keep in sync with Scratch.appendSeries.
var perSeries = []string{
	"mean", "std", "min", "max",
	"p5", "p25", "p50", "p75", "p95",
	"skew", "kurt", "slope",
}

// Count returns the number of features extracted per metric series.
func Count() int { return len(perSeries) }

// Vector is one sample's features.
type Vector struct {
	Names  []string
	Values []float64
}

// Extract computes the feature vector of a metric set. Series are
// processed in sorted-name order so vectors from different runs align.
func Extract(set *trace.Set) Vector {
	var v Vector
	var sc Scratch
	set.Each(func(s *trace.Series) {
		v.Names = appendNames(v.Names, s.Name)
		v.Values = sc.appendSeries(v.Values, s.Values)
	})
	return v
}

// ExtractWindow computes features over the [from,to) second sub-window
// of every series.
func ExtractWindow(set *trace.Set, from, to float64) Vector {
	var v Vector
	var sc Scratch
	set.Each(func(s *trace.Series) {
		v.Names = appendNames(v.Names, s.Name)
		v.Values = sc.appendSeries(v.Values, s.Slice(from, to).Values)
	})
	return v
}

// ExtractRows computes the feature vector from parallel per-metric
// sample slices: rows[i] holds the window's samples of metric names[i].
// Names must already be in sorted order for the vector to align with
// Extract/ExtractWindow output. Consumers that classify every window
// and never read the names (internal/stream) call Scratch.AppendRows
// instead.
func ExtractRows(names []string, rows [][]float64) Vector {
	v := Vector{
		Names:  make([]string, 0, len(names)*len(perSeries)),
		Values: make([]float64, 0, len(names)*len(perSeries)),
	}
	for _, name := range names {
		v.Names = appendNames(v.Names, name)
	}
	var sc Scratch
	v.Values = sc.AppendRows(v.Values, rows[:len(names)]) // one row per name, as Names has
	return v
}

// appendNames appends metric's feature names, "<metric>.<stat>" in
// perSeries order.
func appendNames(dst []string, metric string) []string {
	for _, stat := range perSeries {
		dst = append(dst, metric+"."+stat)
	}
	return dst
}

// Scratch is the working memory of the extraction core: the sort buffer
// behind the order statistics, grown once to the longest series seen
// and reused after that. The zero value is ready to use; a Scratch must
// not be shared between goroutines.
type Scratch struct {
	sorted []float64
}

// AppendRows appends the Count() features of every row to dst, in row
// order, and returns the extended slice — the values ExtractRows
// reports, without the names. With a dst of sufficient capacity it
// allocates nothing once the scratch has grown to the row length.
func (sc *Scratch) AppendRows(dst []float64, rows [][]float64) []float64 {
	for _, xs := range rows {
		dst = sc.appendSeries(dst, xs)
	}
	return dst
}

// appendSeries appends one series' statistics in perSeries order. Every
// value is bit-identical to the internal/stats function of the same
// name (the reference the tests compare against): the same operations
// in the same summation order, with the mean and standard deviation
// that Variance, Skewness, Kurtosis and LinRegress each recompute there
// computed once here.
func (sc *Scratch) appendSeries(dst, xs []float64) []float64 {
	n := len(xs)
	if n == 0 {
		return append(dst, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	fn := float64(n)

	// One pass: the sum (shared by the mean and the regression), the
	// index-weighted sum, and the extremes.
	lo, hi := xs[0], xs[0]
	var sum, sumXY float64
	for i, x := range xs {
		sum += x
		sumXY += float64(i) * x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	mean := sum / fn

	var sd float64
	if n >= 2 {
		var ss float64
		for _, x := range xs {
			d := x - mean
			ss += d * d
		}
		sd = math.Sqrt(ss / fn)
	}

	var skew, kurt float64
	if n >= 3 && sd != 0 {
		var s3, s4 float64
		for _, x := range xs {
			d := (x - mean) / sd
			s3 += d * d * d
			s4 += d * d * d * d
		}
		skew = s3 / fn
		if n >= 4 {
			kurt = s4/fn - 3
		}
	}

	// Least-squares slope over the index x = 0..n-1 (closed-form sums).
	var slope float64
	if n >= 2 {
		sumX := fn * (fn - 1) / 2
		sumXX := fn * (fn - 1) * (2*fn - 1) / 6
		if den := fn*sumXX - sumX*sumX; den != 0 {
			slope = (fn*sumXY - sumX*sum) / den
		}
	}

	sc.sorted = append(sc.sorted[:0], xs...)
	sort.Float64s(sc.sorted)
	return append(dst,
		mean, sd, lo, hi,
		stats.PercentileSorted(sc.sorted, 5), stats.PercentileSorted(sc.sorted, 25),
		stats.PercentileSorted(sc.sorted, 50), stats.PercentileSorted(sc.sorted, 75),
		stats.PercentileSorted(sc.sorted, 95),
		skew, kurt, slope)
}
