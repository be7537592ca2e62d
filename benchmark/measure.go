package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hpas/internal/stats"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark contract's result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stepRow is one line of a report's per-step table.
type stepRow struct {
	Name    string  `json:"name"`
	Work    int     `json:"work"`
	Samples int     `json:"samples"`
	P10MS   float64 `json:"p10_ms"`
	P50MS   float64 `json:"p50_ms"`
	MeanMS  float64 `json:"mean_ms"`
}

// report is everything one run of one workload learned; the result
// line is its contract-shaped summary. It is written to
// out/report-<workload>[-trace].json.
type report struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Traced      bool        `json:"traced"`
	Cycles      int         `json:"cycles"`
	WorkUnit    string      `json:"work_unit"`
	WorkPerCyc  int         `json:"work_per_cycle"`
	TimedSecs   float64     `json:"timed_region_s"`
	Environment environment `json:"environment"`
	Probe       probeResult `json:"host_probe"`
	Steps       []stepRow   `json:"steps"`
	Layers      *layerTable `json:"layers,omitempty"`
	Notes       []string    `json:"notes,omitempty"`
	Result      result      `json:"result"`
}

func stepRows(steps []step, s *samples) []stepRow {
	rows := make([]stepRow, len(steps))
	for i, st := range steps {
		rows[i] = stepRow{Name: st.name, Work: st.work, Samples: len(s.dur[i])}
		if len(s.dur[i]) > 0 {
			rows[i].P10MS = quietDecile(s.dur[i])
			rows[i].P50MS = stats.Median(s.dur[i])
			rows[i].MeanMS = stats.Mean(s.dur[i])
		}
	}
	return rows
}

// setupRounds is how often set-up runs back to back; the fastest round
// is reported, for the reason every other time is a quiet decile.
const setupRounds = 3

// measureEndToEnd is the untraced run: set up, repeat the cycle a fixed
// number of times, verify, and derive the five end-to-end metrics.
func measureEndToEnd(w *workload, cfg runConfig, env environment) (*report, error) {
	w.limitHeap()
	kernel := newHostKernel()
	probe := kernel.probe(time.Second)

	var inst instance
	setupS := 0.0
	rcfg := cfg
	for round := 0; round < setupRounds; round++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up round %d: %w", round, err)
			}
			if err := os.RemoveAll(rcfg.dataDir); err != nil {
				return nil, err
			}
		}
		rcfg.dataDir = filepath.Join(cfg.dataDir, fmt.Sprintf("%s-%d", w.name, round))
		t0 := time.Now()
		var err error
		if inst, err = w.setup(rcfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if d := time.Since(t0).Seconds(); round == 0 || d < setupS {
			setupS = d
		}
	}

	cycles := w.cycles
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s, runErr := runCycles(inst.steps(), cycles, inst.want(), nil, kernel, guard)
	runtime.ReadMemStats(&m1)
	if runErr == nil {
		for _, note := range inst.finish(cycles) {
			s.fail("%s", note)
		}
	}
	// Retention is read with the servers still open: what the program
	// keeps for the jobs it served is the quantity, not what is left
	// after it is torn down.
	liveHeap := liveHeapBytes()
	closeErr := inst.close()
	if err := os.RemoveAll(rcfg.dataDir); err != nil && closeErr == nil {
		closeErr = err
	}
	if runErr != nil {
		return nil, runErr
	}
	if closeErr != nil {
		return nil, fmt.Errorf("tear-down: %w", closeErr)
	}
	probe = append(probe, kernel.probe(time.Second)...)

	// Every time is divided by the host factor: the quiet decile of the
	// probe slices interleaved with the cycles, over the nominal slice
	// (README, "Host factor"). The report carries the factor, so a time
	// as measured is the metric times it.
	factor := hostFactor(s.host)
	ps := summariseProbe(append(probe, s.host...))
	ps.Factor = factor
	work := float64(s.work * cycles)
	cycleMS := s.cycleMS() / factor
	rep := &report{
		Workload:    w.name,
		Seed:        cfg.seed,
		Cycles:      cycles,
		WorkUnit:    w.unit,
		WorkPerCyc:  s.work,
		TimedSecs:   s.elapsed.Seconds(),
		Environment: env,
		Probe:       ps,
		Steps:       stepRows(inst.steps(), s),
		Notes:       s.notes,
	}
	rep.Result = result{
		Correct:   s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics: map[string]metric{
			"setup_s":         {setupS / factor, "s"},
			"work_per_s":      {float64(s.work) / (cycleMS / 1e3), "1/s"},
			"first_ms":        {meanQuiet(s.first) / factor, "ms"},
			"allocs_per_work": {float64(m1.Mallocs-m0.Mallocs) / work, "1"},
			"live_heap_mb":    {liveHeap / (1 << 20), "MB"},
		},
	}
	return rep, nil
}

// writeReport stores the report beside the traces.
func writeReport(outDir string, rep *report) error {
	name := "report-" + rep.Workload
	if rep.Traced {
		name += "-trace"
	}
	buf, err := marshalIndent(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name+".json"), buf, 0o644)
}
