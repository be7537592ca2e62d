// Command benchmark measures the repository end to end and layer by
// layer: four cycle workloads, five end-to-end metrics per workload, and
// a separate traced run that attributes the cycle time to layers. See
// README.md in this directory for every definition.
//
//	bash benchmark/run.sh [-workload W] [-seed N] [-trace 0|1] [-aa N]
//
// run.sh starts it in the root of the checkout; reports and traces go to
// benchmark/out beneath it.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDef declares one metric of BENCHMARK.json; a test keeps the two
// in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

// endToEnd are the five metrics every workload reports untraced. The
// bound is the share by which a metric may worsen before a change
// counts as a regression; ISSUE 12 fixes them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.10},
	{"first_ms", "ms", "lower", 0.10},
	{"allocs_per_work", "1", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// outDir is where reports, traces and (without /dev/shm) journals go,
// relative to the root of the checkout, where run.sh starts the program.
const outDir = "benchmark/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (default: all four in turn)")
		seed    = fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = fs.Int("seconds", runSeconds, "the driver's run budget; the work is fixed, so only the value the counts were frozen for is accepted")
		trace   = fs.Int("trace", 0, "1 runs the traced layer measurement in place of the end-to-end one")
		aa      = fs.Int("aa", 0, "run N sets of every workload on this one build and gate the set-to-set spread")
		data    = fs.String("data", "", "directory to keep journals under (default: /dev/shm when it is there, else benchmark/out)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *aa < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	if *seconds != runSeconds {
		fmt.Fprintf(stderr, "benchmark: -seconds %d: the cycle counts are frozen for BENCHMARK.json's run_seconds, %d\n", *seconds, runSeconds)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	dataDir, err := journalDir(*data, outDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dataDir)

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = []*workload{w}
	}
	env := readEnvironment(dataDir)

	if *aa > 0 {
		return runAA(selected, *aa, *seed, dataDir, env, stdout, stderr)
	}
	code := 0
	for _, w := range selected {
		cfg := runConfig{seed: *seed, dataDir: dataDir}
		var (
			rep *report
			err error
		)
		if *trace == 1 {
			rep, err = measureLayers(w, cfg, env, outDir)
		} else {
			rep, err = measureEndToEnd(w, cfg, env)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if err := writeReport(outDir, rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printReport(stderr, rep)
		line, err := json.Marshal(rep.Result)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rep.Result.Correct {
			code = 1
		}
	}
	return code
}

// journalDir makes the fresh, private directory the workloads journal
// under: beneath base when one is named, else on tmpfs when the host has
// /dev/shm, else beneath the benchmark's own out/. A journal's terminal
// records fsync; on the reference box's ext4 that fsync is a third of a
// routed job and moves in phases of its own (work_per_s 809–936 jobs/s
// over six runs against 1218–1296 on tmpfs), so a device would turn the
// control-plane workload into a disk benchmark. The choice is recorded
// in every report. The caller removes the directory.
func journalDir(base, outDir string) (string, error) {
	if base == "" {
		base = outDir
		if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
			base = "/dev/shm"
		}
	}
	dir, err := os.MkdirTemp(base, "hpas-benchmark-data-")
	if err != nil && base == "/dev/shm" {
		dir, err = os.MkdirTemp(outDir, "hpas-benchmark-data-")
	}
	return dir, err
}

// printReport renders the human-readable form on standard error, so
// standard output stays one result line per workload.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "== %s  seed %d  %d cycles × %d %s  timed %.1fs  commit %s  %s  %s ×%d  data on %s\n",
		rep.Workload, rep.Seed, rep.Cycles, rep.WorkPerCyc, rep.WorkUnit, rep.TimedSecs,
		rep.Environment.Commit, rep.Environment.GoVersion, rep.Environment.CPUModel, rep.Environment.NProc, rep.Environment.DataDirFS)
	fmt.Fprintf(w, "   host probe: factor %.3f (p10 %.3f ms, p50 %.3f ms, quiet share %.2f over %d slices)\n",
		rep.Probe.Factor, rep.Probe.P10MS, rep.Probe.P50MS, rep.Probe.QuietFrac, rep.Probe.Slices)
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		// The traced run declares every layer's metrics on every
		// workload; the layers a workload starves read zero.
		if m := rep.Result.Metrics[n]; m.Value != 0 {
			fmt.Fprintf(w, "   %-34s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	if rep.Layers != nil {
		rep.Layers.print(w)
	}
	fmt.Fprintf(w, "   ops attempted %d, failed %d\n", rep.Result.Attempted, rep.Result.Failed)
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "   ! %s\n", n)
	}
}

func marshalIndent(v any) ([]byte, error) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
