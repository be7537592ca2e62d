package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hpas/internal/stats"
)

// The layers, in stack order. Every traced run reports a self time for
// each, zero where the workload never enters the layer.
var layerNames = []string{"sim", "monitor", "features", "ml", "stream", "journal", "serve", "client", "shard"}

// perLayer are the metrics of the traced run, the same list on every
// workload; a test keeps BENCHMARK.json's per_layer in step with it.
// Times are quiet deciles like every other time in the benchmark, but
// as measured: only the end-to-end metrics are scaled by the host
// factor, which is reported beside these as host.factor.
var perLayer = []metricDef{
	// Self time per cycle, from the ladder: rung minus the rung below.
	{name: "sim.run_ms", unit: "ms", better: "lower"},
	{name: "monitor.self_ms", unit: "ms", better: "lower"},
	{name: "features.self_ms", unit: "ms", better: "lower"},
	{name: "ml.self_ms", unit: "ms", better: "lower"},
	{name: "stream.self_ms", unit: "ms", better: "lower"},
	{name: "journal.self_ms", unit: "ms", better: "lower"},
	{name: "serve.self_ms", unit: "ms", better: "lower"},
	{name: "client.self_ms", unit: "ms", better: "lower"},
	{name: "shard.self_ms", unit: "ms", better: "lower"},
	{name: "ladder.top_ms", unit: "ms", better: "lower"},
	{name: "ladder.untraced_ms", unit: "ms", better: "lower"},
	{name: "ladder.gap_frac", unit: "1", better: "lower"},

	{name: "sim.simsec_per_s", unit: "1/s", better: "higher"},
	{name: "sim.share", unit: "1", better: "lower"},
	{name: "monitor.tap_us_per_sample", unit: "us", better: "lower"},
	{name: "monitor.samples", unit: "count", better: "lower"},
	{name: "features.extract_us", unit: "us", better: "lower"},
	{name: "features.extract_rows_us", unit: "us", better: "lower"},
	{name: "features.allocs_per_window", unit: "count", better: "lower"},
	{name: "ml.cv_ms", unit: "ms", better: "lower"},
	{name: "ml.fit_forest_ms", unit: "ms", better: "lower"},
	{name: "ml.votes_us", unit: "us", better: "lower"},
	{name: "stream.pipeline_us_per_window", unit: "us", better: "lower"},
	{name: "stream.manager_us_per_msg", unit: "us", better: "lower"},
	{name: "stream.frame_encode_us", unit: "us", better: "lower"},
	{name: "stream.frames_encoded", unit: "count", better: "lower"},
	{name: "stream.frame_cache_hits", unit: "count", better: "higher"},
	{name: "stream.submit_us", unit: "us", better: "lower"},
	{name: "stream.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "stream.reopen_us_per_record", unit: "us", better: "lower"},
	{name: "journal.append_us", unit: "us", better: "lower"},
	{name: "journal.state_sync_us", unit: "us", better: "lower"},
	{name: "journal.bytes_per_job", unit: "count", better: "lower"},
	{name: "journal.recover_us_per_record", unit: "us", better: "lower"},
	{name: "journal.errors", unit: "count", better: "lower"},
	{name: "serve.submit_us", unit: "us", better: "lower"},
	{name: "serve.stream_us_per_frame", unit: "us", better: "lower"},
	{name: "serve.http_us_per_op", unit: "us", better: "lower"},
	{name: "client.parse_us_per_frame", unit: "us", better: "lower"},
	{name: "client.decode_us_per_frame", unit: "us", better: "lower"},
	{name: "client.retries", unit: "count", better: "lower"},
	{name: "shard.submit_hop_us", unit: "us", better: "lower"},
	{name: "shard.stream_hop_us_per_frame", unit: "us", better: "lower"},
	{name: "shard.get_us", unit: "us", better: "lower"},
	{name: "shard.heap_kb_per_job", unit: "count", better: "lower"},
	{name: "shard.probe_round_ms", unit: "ms", better: "lower"},

	// Diagnostics of the load generator and the host; never gated.
	{name: "loadgen.ops", unit: "count", better: "higher"},
	{name: "loadgen.failed", unit: "count", better: "lower"},
	{name: "loadgen.op_p50_ms", unit: "ms", better: "lower"},
	{name: "loadgen.op_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.trace_overhead_frac", unit: "1", better: "lower"},
	{name: "host.probe_p10_ms", unit: "ms", better: "lower"},
	{name: "host.quiet_frac", unit: "1", better: "higher"},
	{name: "host.factor", unit: "1", better: "lower"},
}

// A rung is one public entry point into the stack, entered with the
// same deterministic input as the rungs beside it. The layer owns the
// rung's increment over the rung below.
type rung struct {
	name  string
	layer string
	run   func() error
	// after, when set, undoes what run opened; it is not timed.
	after func() error
}

// A ladderGroup is the rungs of one op, lowest entry point first; its
// top rung is the op as the workload's cycle performs it. scale is how
// many cycle steps the group stands for, so a ladder may climb a
// sample of a cycle's ops and still report per-cycle times.
type ladderGroup struct {
	name  string
	scale float64
	rungs []rung
}

// rungRow is one measured rung.
type rungRow struct {
	Group   string  `json:"group"`
	Rung    string  `json:"rung"`
	Layer   string  `json:"layer"`
	P10MS   float64 `json:"p10_ms"`
	SelfMS  float64 `json:"self_ms"` // p10 minus the rung below
	Scale   float64 `json:"scale"`
	Samples int     `json:"samples"`
}

// layerTable is the traced run's result: the ladder, the per-cycle self
// time of every layer, and every per-layer metric.
type layerTable struct {
	Rungs []rungRow          `json:"rungs"`
	Self  map[string]float64 `json:"self_ms"` // per cycle, by layer
	// TopMS is the sum of the groups' top rungs, which the self times
	// add up to by construction. UntracedMS is the quiet time of the
	// workload's untraced cycles, one of which runs before every climb.
	TopMS      float64           `json:"top_ms"`
	UntracedMS float64           `json:"untraced_ms"`
	Metrics    map[string]metric `json:"metrics"`
}

func newLayerTable() *layerTable {
	t := &layerTable{Self: make(map[string]float64), Metrics: make(map[string]metric, len(perLayer))}
	for _, def := range perLayer {
		t.Metrics[def.name] = metric{Unit: def.unit}
	}
	return t
}

// set records one per-layer metric; the name must be declared.
func (t *layerTable) set(name string, v float64) {
	m, ok := t.Metrics[name]
	if !ok {
		panic("benchmark: undeclared per-layer metric " + name)
	}
	m.Value = v
	t.Metrics[name] = m
}

// climb runs round and then every rung of every group, `repeats` times
// over, so the workload's cycles and all rungs see the same host phases,
// and folds the rungs' quiet deciles into the table. A failing rung
// aborts: the ladder re-enters code the cycle has already verified, so
// a failure is a bug in the ladder.
func (t *layerTable) climb(groups []ladderGroup, repeats int, tr *tracer, round func() error) error {
	durs := make([][][]float64, len(groups))
	for g := range groups {
		durs[g] = make([][]float64, len(groups[g].rungs))
	}
	var (
		rg  rung
		err error
	)
	call := func() { err = rg.run() }
	for r := 0; r < repeats; r++ {
		if err := round(); err != nil {
			return err
		}
		for g, grp := range groups {
			for k := range grp.rungs {
				rg = grp.rungs[k]
				sp := tr.begin("ladder/"+grp.name+"/"+rg.name, -1, r)
				t0 := time.Now()
				atDepth(r%staggerLevels, call)
				d := time.Since(t0)
				tr.end(sp)
				if err == nil && rg.after != nil {
					err = rg.after()
				}
				if err != nil {
					return fmt.Errorf("ladder %s/%s: %w", grp.name, rg.name, err)
				}
				durs[g][k] = append(durs[g][k], ms(d))
			}
		}
	}
	for g, grp := range groups {
		below := 0.0
		for k, rg := range grp.rungs {
			p10 := quietDecile(durs[g][k])
			t.Rungs = append(t.Rungs, rungRow{
				Group: grp.name, Rung: rg.name, Layer: rg.layer,
				P10MS: p10, SelfMS: p10 - below, Scale: grp.scale, Samples: len(durs[g][k]),
			})
			t.Self[rg.layer] += grp.scale * (p10 - below)
			below = p10
		}
		t.TopMS += grp.scale * below
	}
	return nil
}

// rungMS returns the scaled quiet time of the named rung summed over
// groups, for metrics that are a difference of two rungs.
func (t *layerTable) rungMS(name string) float64 {
	var sum float64
	for _, r := range t.Rungs {
		if r.Rung == name {
			sum += r.Scale * r.P10MS
		}
	}
	return sum
}

// finishLadder derives the metrics every workload's ladder shares.
func (t *layerTable) finishLadder() {
	for _, l := range layerNames {
		name := l + ".self_ms"
		if l == "sim" {
			name = "sim.run_ms"
		}
		t.set(name, t.Self[l])
	}
	t.set("ladder.top_ms", t.TopMS)
	if t.TopMS > 0 {
		t.set("sim.share", t.Self["sim"]/t.TopMS)
	}
}

func (t *layerTable) print(w io.Writer) {
	fmt.Fprintf(w, "   layer ladder (quiet ms per cycle; self = rung − rung below):\n")
	for _, l := range layerNames {
		share := 0.0
		if t.TopMS > 0 {
			share = t.Self[l] / t.TopMS
		}
		fmt.Fprintf(w, "     %-9s %10.3f  %5.1f%%\n", l, t.Self[l], 100*share)
	}
	fmt.Fprintf(w, "     %-9s %10.3f  (untraced cycle %.3f, gap %+.1f%%)\n", "top rung", t.TopMS, t.UntracedMS, 100*t.Metrics["ladder.gap_frac"].Value)
}

// quietMicros times fn n times and returns the quiet decile in µs.
func quietMicros(n int, fn func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = us(time.Since(t0))
	}
	return quietDecile(xs)
}

// allocsPer reports the mallocs of one call of fn, averaged over n.
func allocsPer(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// liveHeapBytes is the heap still reachable after two collections: the
// second frees what the first only moved into the sync.Pools' victim
// caches, which would otherwise read as retention.
func liveHeapBytes() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// maxLadderGap is how far the ladder's top rung may sit from the
// untraced cycle time before the traced run fails: a layer table that
// does not add up to the end-to-end time attributes nothing.
const maxLadderGap = 0.10

// measureLayers is the traced run. End-to-end metrics never come from
// it; it exists to say where the untraced run's time goes. A round is
// one untraced cycle, one traced cycle (their difference is the tracing
// overhead) and one climb of the workload's ladder, repeated w.climbs
// times; then come the direct calls. The ladder's top rung must match
// the untraced cycle time within maxLadderGap. The spans go to
// out/trace-<workload>.json.
func measureLayers(w *workload, cfg runConfig, env environment, outDir string) (*report, error) {
	w.limitHeap()
	kernel := newHostKernel()
	probe := kernel.probe(time.Second)

	rcfg := cfg
	rcfg.dataDir = filepath.Join(cfg.dataDir, w.name+"-traced")
	inst, err := w.setup(rcfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	untraced, traced := &samples{}, &samples{}
	rounds := 0
	cycles := func() error {
		for _, c := range []struct {
			into *samples
			with *tracer
		}{{untraced, nil}, {traced, tr}} {
			var (
				one *samples
				err error
			)
			// One cycle a call, so the round's number staggers it.
			atDepth(rounds%staggerLevels, func() {
				one, err = runCycles(inst.steps(), 1, inst.want(), c.with, kernel, 0)
			})
			if err != nil {
				return err
			}
			c.into.merge(one)
		}
		// The end-of-run checks follow the last cycle at once: the direct
		// calls after the ladder submit jobs of their own to the
		// workload's servers.
		if rounds++; rounds == w.climbs {
			for _, note := range inst.finish(2 * rounds) {
				untraced.fail("%s", note)
			}
		}
		return nil
	}
	table, err := w.layers(layerInput{cfg: rcfg, inst: inst, tr: tr, repeats: w.climbs, cycles: cycles})
	closeErr := inst.close()
	if rerr := os.RemoveAll(rcfg.dataDir); rerr != nil && closeErr == nil {
		closeErr = rerr
	}
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, fmt.Errorf("tear-down: %w", closeErr)
	}
	probe = append(probe, kernel.probe(time.Second)...)
	interleaved := append(untraced.host, traced.host...)
	ps := summariseProbe(append(probe, interleaved...))
	ps.Factor = hostFactor(interleaved)

	table.UntracedMS = untraced.cycleMS()
	gap := table.TopMS/table.UntracedMS - 1
	table.set("ladder.untraced_ms", table.UntracedMS)
	table.set("ladder.gap_frac", gap)
	if math.Abs(gap) > maxLadderGap {
		untraced.fail("the ladder's top rung, %.3f ms, is %+.1f%% off the untraced cycle time, %.3f ms (limit %.0f%%)",
			table.TopMS, 100*gap, table.UntracedMS, 100*maxLadderGap)
	}

	failed := untraced.failed + traced.failed
	all := append(untraced.allDur(), traced.allDur()...)
	table.set("loadgen.ops", float64(untraced.attempted+traced.attempted))
	table.set("loadgen.failed", float64(failed))
	table.set("loadgen.op_p50_ms", stats.Median(all))
	table.set("loadgen.op_p99_ms", stats.Percentile(all, tailPercentile(len(all))))
	table.set("loadgen.trace_overhead_frac", traced.cycleMS()/untraced.cycleMS()-1)
	table.set("host.probe_p10_ms", ps.P10MS)
	table.set("host.quiet_frac", ps.QuietFrac)
	table.set("host.factor", ps.Factor)

	if err := tr.flush(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return &report{
		Workload:    w.name,
		Seed:        cfg.seed,
		Traced:      true,
		Cycles:      2 * rounds,
		WorkUnit:    w.unit,
		WorkPerCyc:  untraced.work,
		TimedSecs:   (untraced.elapsed + traced.elapsed).Seconds(),
		Environment: env,
		Probe:       ps,
		Steps:       stepRows(inst.steps(), untraced),
		Layers:      table,
		Notes:       append(untraced.notes, traced.notes...),
		Result: result{
			Correct:   failed == 0,
			Attempted: untraced.attempted + traced.attempted,
			Failed:    failed,
			Metrics:   table.Metrics,
		},
	}, nil
}

// layerInput is what a workload's layers function works from.
type layerInput struct {
	cfg     runConfig
	inst    instance
	tr      *tracer
	repeats int // how often to climb the ladder
	// cycles runs one untraced and one traced cycle of the workload; the
	// ladder calls it before every climb.
	cycles func() error
}
