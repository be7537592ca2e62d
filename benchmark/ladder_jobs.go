package main

import (
	"context"
	"fmt"
	"time"

	"hpas"
	"hpas/api"
	hpasclient "hpas/client"
	"hpas/internal/monitor"
	"hpas/internal/stream"
)

// jobLadder builds the rungs a submitted job climbs, shared by the two
// workloads whose op is "submit a job and follow it": the campaign on
// the bare simulator, with a no-op tap, driving the detection pipeline
// with a no-op sink, through a manager and a follower in process, the
// same in wire-encoded frames, and over HTTP. It owns its servers; the
// workload's own are left to the cycle. The caller owns mem and node.
type jobLadder struct {
	ctx context.Context
	// mem is an in-memory manager. node is the ladder's serve instance
	// — journaled when the workload's are — entered in process by the
	// upper rungs and over HTTP by the top ones.
	mem  *hpas.StreamManager
	node *serveNode
	cl   *hpasclient.Client

	submitUS []float64 // Manager.Submit alone, on node's manager
	direct   opPhases  // the direct-HTTP rung, phase by phase
}

// inProcess submits spec to mgr and drains the job's stream in process,
// as messages or as wire frames.
func (jl *jobLadder) inProcess(mgr *hpas.StreamManager, spec hpas.StreamJobSpec, frames, timeSubmit bool) error {
	t0 := time.Now()
	job, err := mgr.Submit(spec)
	if err != nil {
		return err
	}
	if timeSubmit {
		jl.submitUS = append(jl.submitUS, us(time.Since(t0)))
	}
	if frames {
		for range job.FollowFramesFrom(jl.ctx, 0) {
		}
	} else {
		for range job.FollowFrom(jl.ctx, 0) {
		}
	}
	if state, jerr := job.State(); state != hpas.StreamJobDone {
		return fmt.Errorf("job %s ended %q: %v", job.ID(), state, jerr)
	}
	return nil
}

// rungs returns req's rungs up to and including direct HTTP. For the
// control-plane op, node is journaled: a rung swaps the in-memory
// manager for node's, and the HTTP rung ends with the op's status read.
func (jl *jobLadder) rungs(req api.JobRequest, controlPlane bool) ([]rung, error) {
	spec, err := jl.node.srv.BuildSpec(req)
	if err != nil {
		return nil, err
	}
	rungs := []rung{
		{name: "sim", layer: "sim", run: func() error { return runCampaign(jl.ctx, spec, nil) }},
		{name: "tap", layer: "monitor", run: func() error { return runCampaign(jl.ctx, spec, func(monitor.Sample) {}) }},
		{name: "pipeline", layer: "stream", run: func() error {
			pcfg := spec.Pipeline
			pcfg.Emit = func(hpas.StreamMessage) {}
			pipe, err := stream.NewPipeline(pcfg)
			if err != nil {
				return err
			}
			if err := runCampaign(jl.ctx, spec, pipe.Observe); err != nil {
				return err
			}
			pipe.Flush()
			return pipe.Err()
		}},
		{name: "manager", layer: "stream", run: func() error { return jl.inProcess(jl.mem, spec, false, false) }},
	}
	if controlPlane {
		rungs = append(rungs, rung{name: "journal", layer: "journal", run: func() error {
			return jl.inProcess(jl.node.mgr, spec, false, false)
		}})
	}
	rungs = append(rungs,
		rung{name: "frames", layer: "stream", run: func() error { return jl.inProcess(jl.node.mgr, spec, true, true) }},
		rung{name: "http", layer: "serve", run: func() error { return jl.direct.run(jl.ctx, jl.cl, req, controlPlane) }},
	)
	return rungs, nil
}

// splitPipeline moves the shares of the pipeline rung that feature
// extraction and voting own — sized by direct calls on a captured
// window — out of stream's self time, leaving the ring buffers, the
// summarizer and the sink with stream. The layers still add up.
func splitPipeline(t *layerTable, extractUS, votesUS float64, windowsPerCycle int) {
	featuresMS := extractUS * float64(windowsPerCycle) / 1e3
	mlMS := votesUS * float64(windowsPerCycle) / 1e3
	t.Self["features"] += featuresMS
	t.Self["ml"] += mlMS
	t.Self["stream"] -= featuresMS + mlMS
}

// jobMetrics derives the per-layer metrics the job rungs give, for a
// cycle of ops jobs, windows classified windows, samples tapped samples
// and msgs stream messages.
func (jl *jobLadder) jobMetrics(t *layerTable, ops, windows, samples, msgs int, simSeconds float64) {
	perUS := func(upper, lower string, n int) float64 {
		return (t.rungMS(upper) - t.rungMS(lower)) * 1e3 / float64(n)
	}
	t.set("sim.simsec_per_s", simSeconds/(t.Self["sim"]/1e3))
	t.set("monitor.samples", float64(samples))
	t.set("monitor.tap_us_per_sample", perUS("tap", "sim", samples))
	t.set("stream.pipeline_us_per_window", perUS("pipeline", "tap", windows))
	t.set("stream.manager_us_per_msg", perUS("manager", "pipeline", msgs))
	below := "manager"
	if t.rungMS("journal") > 0 {
		below = "journal"
	}
	t.set("stream.frame_encode_us", perUS("frames", below, msgs))
	t.set("serve.http_us_per_op", perUS("http", "frames", ops))
	t.set("stream.submit_us", quietDecile(jl.submitUS))
}
