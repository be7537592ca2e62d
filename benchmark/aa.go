package main

import (
	"fmt"
	"io"
	"path/filepath"

	"hpas/internal/stats"
)

// runAA is the A/A check: n sets of every selected workload on this one
// build, each set with its own seed, then for every end-to-end metric
// the set-to-set spread against the metric's bound. Two sets of runs of
// the same code must agree before a difference between two builds can
// mean anything. It also prints, per workload, how the cycle time would
// have spread under other estimators, which is the evidence for the one
// the benchmark uses. It exits non-zero on a breach or a failed op.
func runAA(selected []*workload, n int, seed uint64, dataDir string, env environment, stdout, stderr io.Writer) int {
	values := make(map[string]map[string][]float64, len(selected)) // workload → metric → per set
	cycle := make(map[string]map[string][]float64, len(selected))  // workload → estimator → cycle ms per set
	failed := 0
	for set := 0; set < n; set++ {
		for _, w := range selected {
			cfg := runConfig{seed: seed + uint64(set), dataDir: filepath.Join(dataDir, fmt.Sprintf("aa-%d", set))}
			rep, err := measureEndToEnd(w, cfg, env)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: -aa set %d %s: %v\n", set, w.name, err)
				return 1
			}
			failed += rep.Result.Failed
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
				cycle[w.name] = make(map[string][]float64)
			}
			for name, m := range rep.Result.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
			var p10, p50, mean float64
			for _, st := range rep.Steps {
				p10 += st.P10MS
				p50 += st.P50MS
				mean += st.MeanMS
			}
			for est, v := range map[string]float64{"mean": mean, "p50": p50, "p10": p10, "p10 / host factor": p10 / rep.Probe.Factor} {
				cycle[w.name][est] = append(cycle[w.name][est], v)
			}
			fmt.Fprintf(stderr, "set %d/%d %-16s seed %d  work_per_s %.5g  first_ms %.4g  host factor %.3f\n",
				set+1, n, w.name, cfg.seed, rep.Result.Metrics["work_per_s"].Value, rep.Result.Metrics["first_ms"].Value, rep.Probe.Factor)
		}
	}

	// Quartiles need at least four sets to mean anything; below that
	// the whole range is gated instead.
	spread, kind := quartileSpread, "IQR/median"
	if n < 4 {
		spread, kind = rangeSpread, "range/median"
	}
	breaches := 0
	fmt.Fprintf(stdout, "A/A over %d sets, seeds %d–%d, %d s budget, commit %s, %s, %s ×%d, journals on %s; spread is %s\n\n",
		n, seed, seed+uint64(n)-1, runSeconds, env.Commit, env.GoVersion, env.CPUModel, env.NProc, env.DataDirFS, kind)
	fmt.Fprintf(stdout, "| workload | metric | median | min | max | spread | bound | verdict |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range selected {
		for _, def := range endToEnd {
			xs := values[w.name][def.name]
			s := spread(xs)
			verdict := "ok"
			// Set-up time is reported, not gated: the driver does the same.
			switch {
			case def.name == "setup_s":
				verdict = "not gated"
			case s > def.bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.5g | %.5g | %.5g | %.2f%% | %.0f%% | %s |\n",
				w.name, def.name, stats.Median(xs), stats.Min(xs), stats.Max(xs), 100*s, 100*def.bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "\nCycle time under other estimators (sum over steps, ms), same runs:\n\n")
	fmt.Fprintf(stdout, "| workload | estimator | median | spread | range/median |\n|---|---|---|---|---|\n")
	for _, w := range selected {
		for _, est := range []string{"mean", "p50", "p10", "p10 / host factor"} {
			xs := cycle[w.name][est]
			fmt.Fprintf(stdout, "| %s | %s | %.5g | %.2f%% | %.2f%% |\n", w.name, est, stats.Median(xs), 100*spread(xs), 100*rangeSpread(xs))
		}
	}
	fmt.Fprintf(stdout, "\n%d breach(es), %d failed op(s)\n", breaches, failed)
	if breaches > 0 || failed > 0 {
		return 1
	}
	return 0
}
