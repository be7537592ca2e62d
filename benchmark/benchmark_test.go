package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuietDecileAndCycleSum(t *testing.T) {
	// 0..10: the 10th percentile interpolates to exactly 1.
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	if got := quietDecile(xs); !near(got, 1) {
		t.Errorf("quietDecile(0..10) = %v, want 1", got)
	}
	// One disturbed step must not cost the cycle its other steps' quiet
	// samples: the sum of deciles is 1 + 20, not the decile of the sums.
	slow := []float64{20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 500}
	if got := cycleTime([][]float64{xs, slow, nil}); !near(got, 21) {
		t.Errorf("cycleTime = %v, want 21", got)
	}
	if got := meanQuiet([][]float64{xs, nil, slow}); !near(got, 10.5) {
		t.Errorf("meanQuiet = %v, want 10.5", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {100, 90}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); !near(got, c.want) {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	ten := []float64{3, 1, 2, 10, 9, 8, 4, 5, 7, 6}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12, 11, 15], n=4) == [10.25, 11.5, 14.25].
	if got, want := quartileSpread([]float64{10, 12, 11, 15}), 4.0/11.5; !near(got, want) {
		t.Errorf("quartileSpread(4 values) = %v, want %v", got, want)
	}
	if got := rangeSpread([]float64{9, 10, 11}); !near(got, 0.2) {
		t.Errorf("rangeSpread = %v, want 0.2", got)
	}
}

func TestInputsComeFromTheSeed(t *testing.T) {
	gens := map[string]func(uint64) any{
		"paper":  func(s uint64) any { return paperInputs(s, 1) },
		"live":   func(s uint64) any { return liveInputs(s) },
		"routed": func(s uint64) any { return routedInputs(s) },
		"replay": func(s uint64) any { return replayInput(s) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

func TestLadderSelfTimesSumToTheTopRung(t *testing.T) {
	spin := func(d time.Duration) func() error {
		return func() error {
			for t0 := time.Now(); time.Since(t0) < d; {
			}
			return nil
		}
	}
	groups := []ladderGroup{
		{name: "a", scale: 3, rungs: []rung{
			{name: "low", layer: "sim", run: spin(200 * time.Microsecond)},
			{name: "mid", layer: "stream", run: spin(500 * time.Microsecond)},
			{name: "top", layer: "serve", run: spin(900 * time.Microsecond)},
		}},
		{name: "b", scale: 1, rungs: []rung{
			{name: "only", layer: "stream", run: spin(300 * time.Microsecond)},
		}},
	}
	table := newLayerTable()
	rounds := 0
	if err := table.climb(groups, 8, nil, func() error { rounds++; return nil }); err != nil {
		t.Fatal(err)
	}
	if rounds != 8 {
		t.Errorf("the workload's cycles ran before %d climbs, want all 8", rounds)
	}
	table.finishLadder()
	sum := 0.0
	for _, self := range table.Self {
		sum += self
	}
	if !near(sum, table.TopMS) {
		t.Errorf("layer self times sum to %v, top rung is %v", sum, table.TopMS)
	}
	if want := 3*0.9 + 0.3; math.Abs(table.TopMS-want) > 0.5 {
		t.Errorf("top rung %v ms, want about %v", table.TopMS, want)
	}
	if table.Self["sim"] < 3*0.2 || table.Self["serve"] < 3*0.3 {
		t.Errorf("self times %v do not reflect the rung increments", table.Self)
	}
}

// smoke sets a workload up, runs its cycle twice with verification on,
// runs the end-of-run checks, and tears it down.
func smoke(t *testing.T, w *workload) {
	t.Parallel()
	inst, err := w.setup(runConfig{seed: 3, dataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := inst.close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	s, err := runCycles(inst.steps(), 2, inst.want(), newTracer(), newHostKernel(), guard)
	if err != nil {
		t.Fatal(err)
	}
	for _, note := range inst.finish(2) {
		s.fail("%s", note)
	}
	if s.failed != 0 || s.attempted == 0 {
		t.Fatalf("%d of %d ops failed: %v", s.failed, s.attempted, s.notes)
	}
	for i, xs := range s.dur {
		if len(xs) != 2 {
			t.Errorf("step %s has %d samples, want 2", s.names[i], len(xs))
		}
	}
	if s.work == 0 || s.cycleMS() <= 0 || meanQuiet(s.first) <= 0 {
		t.Errorf("work %d, cycle %v ms, first %v ms: all must be positive", s.work, s.cycleMS(), meanQuiet(s.first))
	}
}

func TestSmokePaperDiagnosis(t *testing.T) { smoke(t, paperDiagnosis) }
func TestSmokeLiveDetect(t *testing.T)     { smoke(t, liveDetect) }
func TestSmokeRoutedJobs(t *testing.T)     { smoke(t, routedJobs) }
func TestSmokeRestartReplay(t *testing.T)  { smoke(t, restartReplay) }

func TestVerificationCountsAChangedOutputAsAFailedOp(t *testing.T) {
	calls := uint64(0)
	steps := []step{{name: "s", op: true, work: 1, run: func(*tracer, int) (stepResult, error) {
		calls++
		return stepResult{digest: calls / 4}, nil // 0 for the warm-up and two repeats, then 1
	}}}
	want, err := warmUp(steps)
	if err != nil {
		t.Fatal(err)
	}
	s, err := runCycles(steps, 4, want, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.attempted != 4 || s.failed != 2 || len(s.dur[0]) != 2 {
		t.Errorf("attempted %d, failed %d, %d samples: the two drifted repeats must fail and leave no sample", s.attempted, s.failed, len(s.dur[0]))
	}
}

func TestAtDepthMovesTheStack(t *testing.T) {
	at := func(depth int) (sp uintptr) {
		atDepth(depth, func() {
			var local byte
			sp = uintptr(unsafe.Pointer(&local))
		})
		return sp
	}
	at(staggerLevels - 1) // grow the stack first: growing moves it
	top, bottom := at(0), at(staggerLevels-1)
	if span := top - bottom; span < (staggerLevels-1)*staggerBytes || span > 2*4096 {
		t.Errorf("%d levels moved the callee's frame by %d bytes, want about a 4 KiB page", staggerLevels-1, span)
	}
}

func TestNoProbeSliceInsideAnOp(t *testing.T) {
	wait := func(*tracer, int) (stepResult, error) {
		time.Sleep(probeEvery + 5*time.Millisecond)
		return stepResult{}, nil
	}
	steps := []step{{name: "begin", run: wait}, {name: "end", midOp: true, run: wait}}
	s, err := runCycles(steps, 3, nil, nil, newHostKernel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// A slice is due before every step; the three before "end" would sit
	// inside the op's first-result time.
	if len(s.host) != 3 {
		t.Errorf("%d probe slices over 3 cycles, want one per cycle, before the op begins", len(s.host))
	}
}

func TestSecondsOtherThanTheFrozenBudgetIsRefused(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "live-detect", "-seconds", "5"}, &out, &errOut); code != 2 {
		t.Errorf("exit code %d, want 2; stderr: %s", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("a refused run printed a result: %s", out.String())
	}
}

// TestBenchmarkJSONMatchesTheCode keeps the declared benchmark and the
// program that implements it in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		RunSeconds int    `json:"run_seconds"`
		Workloads  []decl `json:"workloads"`
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the cycle counts are frozen for %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d declared as %q (%q), implemented as %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []decl, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(got), len(want))
		}
		for i, def := range want {
			d := got[i]
			if d.Name != def.name || d.Unit != def.unit || d.Better != def.better {
				t.Errorf("%s %d: declared %+v, implemented %+v", kind, i, d, def)
			}
			if bounded && (d.Bound == nil || *d.Bound != def.bound) {
				t.Errorf("%s %s: declared bound differs from the implemented %v", kind, def.name, def.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
