package features

import (
	"math"
	"testing"

	"hpas/internal/race"
	"hpas/internal/stats"
	"hpas/internal/trace"
	"hpas/internal/xrand"
)

func mkSet() *trace.Set {
	set := trace.NewSet()
	a := trace.NewSeries("user::procstat", 1)
	a.Values = []float64{10, 20, 30, 40, 50}
	b := trace.NewSeries("MemFree::meminfo", 1)
	b.Values = []float64{100, 100, 100, 100, 100}
	set.Add(a)
	set.Add(b)
	return set
}

func TestExtractShape(t *testing.T) {
	v := Extract(mkSet())
	want := 2 * Count()
	if len(v.Values) != want || len(v.Names) != want {
		t.Fatalf("got %d values / %d names, want %d", len(v.Values), len(v.Names), want)
	}
	// Sorted-name order: MemFree first.
	if v.Names[0] != "MemFree::meminfo.mean" {
		t.Errorf("first feature = %s", v.Names[0])
	}
}

func TestExtractValues(t *testing.T) {
	v := Extract(mkSet())
	get := func(name string) float64 {
		for i, n := range v.Names {
			if n == name {
				return v.Values[i]
			}
		}
		t.Fatalf("feature %s missing", name)
		return 0
	}
	if got := get("user::procstat.mean"); got != 30 {
		t.Errorf("mean = %v", got)
	}
	if got := get("user::procstat.min"); got != 10 {
		t.Errorf("min = %v", got)
	}
	if got := get("user::procstat.max"); got != 50 {
		t.Errorf("max = %v", got)
	}
	if got := get("user::procstat.p50"); got != 30 {
		t.Errorf("p50 = %v", got)
	}
	if got := get("user::procstat.slope"); math.Abs(got-10) > 1e-9 {
		t.Errorf("slope = %v, want 10", got)
	}
	// Constant series: std and slope are 0.
	if got := get("MemFree::meminfo.std"); got != 0 {
		t.Errorf("constant std = %v", got)
	}
	if got := get("MemFree::meminfo.slope"); got != 0 {
		t.Errorf("constant slope = %v", got)
	}
}

func TestExtractWindow(t *testing.T) {
	v := ExtractWindow(mkSet(), 1, 4) // samples {20,30,40}
	for i, n := range v.Names {
		if n == "user::procstat.mean" {
			if v.Values[i] != 30 {
				t.Errorf("window mean = %v", v.Values[i])
			}
			return
		}
	}
	t.Fatal("feature missing")
}

func TestVectorsAlignAcrossRuns(t *testing.T) {
	a, b := Extract(mkSet()), Extract(mkSet())
	if len(a.Names) != len(b.Names) {
		t.Fatal("length mismatch")
	}
	for i := range a.Names {
		if a.Names[i] != b.Names[i] || a.Values[i] != b.Values[i] {
			t.Fatal("vectors differ across identical runs")
		}
	}
}

func TestEmptySeries(t *testing.T) {
	set := trace.NewSet()
	set.Add(trace.NewSeries("empty::x", 1))
	v := Extract(set)
	if len(v.Values) != Count() {
		t.Fatalf("got %d values", len(v.Values))
	}
	for i, val := range v.Values {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			t.Errorf("feature %s = %v on empty series", v.Names[i], val)
		}
	}
}

// reference is the feature list built from the internal/stats functions,
// each recomputing what it needs: what extraction was before the core
// computed the shared moments once.
func reference(xs []float64) []float64 {
	ps := stats.Percentiles(xs, 5, 25, 50, 75, 95)
	slope, _ := stats.LinRegress(xs)
	return []float64{
		stats.Mean(xs), stats.StdDev(xs), stats.Min(xs), stats.Max(xs),
		ps[0], ps[1], ps[2], ps[3], ps[4],
		stats.Skewness(xs), stats.Kurtosis(xs), slope,
	}
}

func TestCoreBitIdenticalToStats(t *testing.T) {
	rng := xrand.New(7)
	var corpus [][]float64
	for n := 0; n <= 20; n++ {
		for rep := 0; rep < 25; rep++ {
			xs := make([]float64, n)
			scale := math.Pow(10, float64(rep%9)-2) // 0.01 … 1e6, like the metric set
			for i := range xs {
				xs[i] = scale * rng.Norm(0, 1)
			}
			corpus = append(corpus, xs)
		}
	}
	corpus = append(corpus,
		[]float64{3.5, 3.5, 3.5, 3.5, 3.5, 3.5, 3.5, 3.5, 3.5, 3.5},
		[]float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		[]float64{0, 1.2e9, 0, 0, 4.7e8, 0, 9.9e8, 0, 0, 1},
		[]float64{7e10, 7e10 + 4096, 7e10 + 8192, 7e10 + 8192},
	)

	var sc Scratch
	var got []float64
	for _, xs := range corpus {
		in := append([]float64(nil), xs...)
		got = sc.appendSeries(got[:0], xs)
		want := reference(xs)
		if len(got) != Count() {
			t.Fatalf("core returned %d values, want %d", len(got), Count())
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Errorf("%s of %v: core %v (%#x), stats %v (%#x)", perSeries[k], xs,
					got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
			}
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(in[i]) {
				t.Fatalf("core modified its input %v", in)
			}
		}
	}
}

// The three wrappers name features "<metric>.<stat>" in sorted-metric,
// perSeries order and carry the core's values: dataset CSV headers and
// the detector's NFeatures check depend on it.
func TestWrappersNamesAndOrder(t *testing.T) {
	set := mkSet()
	names := set.Names()
	var wantNames []string
	var rows [][]float64
	for _, m := range names {
		for _, st := range []string{"mean", "std", "min", "max", "p5", "p25", "p50", "p75", "p95", "skew", "kurt", "slope"} {
			wantNames = append(wantNames, m+"."+st)
		}
		rows = append(rows, set.Get(m).Values)
	}
	var wantVals []float64
	for _, r := range rows {
		wantVals = append(wantVals, reference(r)...)
	}
	for name, v := range map[string]Vector{
		"Extract":       Extract(set),
		"ExtractWindow": ExtractWindow(set, 0, 5),
		"ExtractRows":   ExtractRows(names, rows),
	} {
		if len(v.Names) != len(wantNames) || len(v.Values) != len(wantVals) {
			t.Fatalf("%s: %d names / %d values, want %d / %d", name, len(v.Names), len(v.Values), len(wantNames), len(wantVals))
		}
		for i := range wantNames {
			if v.Names[i] != wantNames[i] {
				t.Errorf("%s: name %d = %q, want %q", name, i, v.Names[i], wantNames[i])
			}
			if math.Float64bits(v.Values[i]) != math.Float64bits(wantVals[i]) {
				t.Errorf("%s: %s = %v, want %v", name, wantNames[i], v.Values[i], wantVals[i])
			}
		}
	}
}

// ExtractRows reads one row per name: surplus rows are ignored, so Names
// and Values always pair up.
func TestExtractRowsIgnoresSurplusRows(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	v := ExtractRows([]string{"a", "b"}, rows)
	if len(v.Names) != 2*Count() || len(v.Values) != 2*Count() {
		t.Fatalf("%d names / %d values, want %d of each", len(v.Names), len(v.Values), 2*Count())
	}
}

func TestAppendRowsSteadyStateAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed by -race instrumentation")
	}
	rng := xrand.New(3)
	rows := make([][]float64, 10)
	for m := range rows {
		rows[m] = make([]float64, 10)
		for i := range rows[m] {
			rows[m][i] = rng.Norm(0, 1)
		}
	}
	var sc Scratch
	dst := sc.AppendRows(nil, rows)
	if allocs := testing.AllocsPerRun(100, func() { dst = sc.AppendRows(dst[:0], rows) }); allocs != 0 {
		t.Errorf("AppendRows on warm scratch allocates %v per window, want 0", allocs)
	}
}
