package core

import (
	"context"
	"fmt"

	"hpas/internal/apps"
	"hpas/internal/cluster"
	"hpas/internal/monitor"
	"hpas/internal/sim"
	"hpas/internal/trace"
)

// RunConfig describes one monitored experiment run: a cluster, an
// optional application, and a set of anomaly injections.
type RunConfig struct {
	// Cluster is the machine to simulate.
	Cluster cluster.Config
	// App names a Table 2 application to run (empty = none).
	App string
	// AppNodes is the job's allocation (defaults to nodes 0..3 when an
	// app is named and the cluster has at least 4 nodes).
	AppNodes []int
	// RanksPerNode defaults to all physical cores.
	RanksPerNode int
	// Iterations overrides the app profile's iteration count (0 keeps
	// the default).
	Iterations int
	// AppScale scales the app's per-rank problem size (input size);
	// 0 or 1 keeps the profile defaults.
	AppScale float64
	// Anomalies are the injections to apply.
	Anomalies []Spec
	// MaxSeconds bounds the simulated run (default 3000).
	MaxSeconds float64
	// FixedSeconds, when positive, runs for exactly this long instead
	// of waiting for the app (used for dataset windows).
	FixedSeconds float64
	// SamplePeriod is the monitoring period (default 1s).
	SamplePeriod float64
	// Noise is the monitor's relative sampling noise (default 0.01).
	Noise float64
	// MemBWCounter adds the uncore memory-bandwidth metric to the
	// monitor (off by default, as on the paper's system).
	MemBWCounter bool
	// Seed makes the run reproducible.
	Seed uint64
	// DT is the simulation step (default sim.DefaultDT).
	DT float64
	// Tap, when non-nil, receives every monitor sample as it is taken,
	// enabling online consumers (see internal/stream) to observe the run
	// while it is still in progress. A sample's Values are valid for
	// the duration of the call only (the monitor reuses the buffer); a
	// tap that keeps them copies them. A tapped run keeps no trace: the
	// tap sees every sample, bit for bit what an untapped run of the
	// same seed records, and RunResult.Metrics is nil. Excluded from
	// JSON so a RunConfig can be journaled (see
	// internal/stream/journal).
	Tap monitor.TapFunc `json:"-"`
}

// RunResult is the outcome of a Run.
type RunResult struct {
	// Duration is the app's completion time, or the simulated time when
	// no app was run (or it did not finish).
	Duration float64
	// Finished reports whether the app completed within MaxSeconds.
	Finished bool
	// Job is the application job, when one was run.
	Job *apps.Job
	// Metrics holds each node's monitored time series; nil when
	// RunConfig.Tap was set, since a tapped run keeps no trace.
	Metrics []*trace.Set
	// Cluster is the simulated machine, for counter inspection.
	Cluster *cluster.Cluster
}

// Run executes one experiment and returns its result.
func Run(cfg RunConfig) (*RunResult, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the context is checked every
// simulation tick, and a cancelled run returns ctx.Err() (no partial
// result). Long simulations driven by servers or CLIs should prefer it.
func RunContext(ctx context.Context, cfg RunConfig) (*RunResult, error) {
	res, _, err := runContext(ctx, cfg)
	return res, err
}

// runContext is RunContext that also returns how many sampling periods
// the monitor took, which a tapped run has no trace to count by.
func runContext(ctx context.Context, cfg RunConfig) (*RunResult, int, error) {
	if cfg.Cluster.Nodes == 0 {
		return nil, 0, fmt.Errorf("core: cluster config has no nodes")
	}
	ccfg := cfg.Cluster
	if cfg.Seed != 0 {
		ccfg.Seed = cfg.Seed
	}
	c := cluster.New(ccfg)

	dt := cfg.DT
	if dt <= 0 {
		dt = sim.DefaultDT
	}
	period := cfg.SamplePeriod
	if period <= 0 {
		period = 1
	}
	noise := cfg.Noise
	if noise == 0 {
		noise = 0.01
	}
	mon := monitor.NewWithOptions(c, period, noise, ccfg.Seed+0xa0b1,
		monitor.Options{IncludeMemBW: cfg.MemBWCounter, Tap: cfg.Tap})
	eng := sim.New(dt)
	eng.Add(c)
	eng.Add(mon)

	for _, s := range cfg.Anomalies {
		if _, err := Inject(c, s); err != nil {
			return nil, 0, err
		}
	}

	var job *apps.Job
	if cfg.App != "" {
		profile, ok := apps.ByName(cfg.App)
		if !ok {
			return nil, 0, fmt.Errorf("core: unknown app %q (see Table 2: %v)", cfg.App, apps.Names())
		}
		if cfg.Iterations > 0 {
			profile.Iterations = cfg.Iterations
		}
		if cfg.AppScale > 0 {
			profile = profile.Scaled(cfg.AppScale)
		}
		nodes := cfg.AppNodes
		if nodes == nil {
			n := 4
			if c.NumNodes() < n {
				n = c.NumNodes()
			}
			for i := 0; i < n; i++ {
				nodes = append(nodes, i)
			}
		}
		rpn := cfg.RanksPerNode
		if rpn <= 0 {
			rpn = ccfg.Machine.PhysCores()
		}
		job = apps.Launch(c, profile, nodes, rpn)
	}

	maxSec := cfg.MaxSeconds
	if maxSec <= 0 {
		maxSec = 3000
	}

	// cancelled is polled once per simulation tick, so aborting a run
	// costs one atomic load per 100 ms of simulated time.
	cancelled := func() bool { return ctx.Err() != nil }

	res := &RunResult{Job: job, Cluster: c}
	switch {
	case cfg.FixedSeconds > 0:
		eng.RunUntil(cancelled, cfg.FixedSeconds)
		res.Duration = eng.Now()
		res.Finished = job == nil || job.Done()
	case job != nil:
		at, ok := eng.RunUntil(func() bool { return job.Done() || cancelled() }, maxSec)
		res.Duration, res.Finished = at, ok && job.Done()
		if res.Finished {
			res.Duration = job.FinishedAt()
		}
	default:
		eng.RunUntil(cancelled, maxSec)
		res.Duration = eng.Now()
		res.Finished = true
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}

	if cfg.Tap == nil {
		for i := 0; i < c.NumNodes(); i++ {
			res.Metrics = append(res.Metrics, mon.NodeSet(i))
		}
	}
	return res, mon.Samples(), nil
}
