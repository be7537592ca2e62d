package main

import (
	"fmt"
	"runtime/debug"
	"time"
)

// instance is one set-up of a workload: inputs generated, servers open,
// and the warm-up cycle run so caches are full and the reference
// digests known.
type instance interface {
	// steps is the workload's cycle.
	steps() []step
	// want is the output digest of every step, from the warm-up cycle.
	want() []uint64
	// finish runs the end-of-run checks that need the whole run (job
	// tables, counters) with the servers still open, and returns one
	// description per violation; each counts as a failed op.
	finish(cycles int) []string
	// close stops every server and goroutine the set-up started and
	// waits for them.
	close() error
}

// workload names one cycle and how to measure it.
type workload struct {
	name string
	why  string
	unit string // work unit of work_per_s and allocs_per_work
	// cycles is the frozen repeat count: how many cycles filled a 20 s
	// timed region on the reference box at the commit that introduced
	// the benchmark. Work per run is fixed, not time, so allocation and
	// heap figures compare exactly across commits.
	cycles int
	// climbs is how often the traced run repeats its round of one
	// untraced cycle, one traced cycle and one climb of the ladder,
	// frozen the same way; a round costs three to four cycles, so each
	// workload buys the repeats a 20 s traced run allows.
	climbs int
	// heapLimitMB is the soft memory limit the workload runs under, at
	// least twice its end-of-run live heap. The benchmark turns GOGC
	// off, so the collector runs only as the heap nears this limit:
	// collections become rare events a quiet decile drops, instead of
	// two per 12 ms step competing with the step for the second core
	// (README, "Garbage collection"). Allocation volume is gated on
	// its own, by allocs_per_work.
	heapLimitMB int
	setup       func(cfg runConfig) (instance, error)
	// layers measures the workload's layer ladder and direct calls in
	// the traced run.
	layers func(in layerInput) (*layerTable, error)
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    uint64
	dataDir string // scratch space for journals
}

// limitHeap puts the process under the workload's collector policy:
// GOGC off, the workload's memory limit.
func (w *workload) limitHeap() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(int64(w.heapLimitMB) << 20)
}

// runSeconds is BENCHMARK.json's run_seconds: the timed-region budget
// the cycle counts were frozen for. The work is fixed, so the number
// only sets the guard; -seconds exists because the driver passes it.
const runSeconds = 20

// guard is the wall-clock limit of a timed region: three times the
// budget. A fixed amount of work that takes that long is a broken host
// or a broken program, and either way not a measurement.
const guard = 3 * runSeconds * time.Second

var workloads = []*workload{paperDiagnosis, liveDetect, routedJobs, restartReplay}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// warmUp runs the set-up's one untimed cycle and returns the digests
// the timed repeats must reproduce.
func warmUp(steps []step) ([]uint64, error) {
	s, err := runCycles(steps, 1, nil, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	if s.failed > 0 {
		return nil, fmt.Errorf("warm-up cycle failed: %s", s.notes[0])
	}
	return s.digests, nil
}
