package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hpas"
	"hpas/api"
	hpasclient "hpas/client"
	"hpas/internal/xrand"
)

// liveDetect is the service hot path, in memory and direct: submit a
// campaign to one hpas-serve, follow its live stream to the end. The
// machines run no application and every node is watched through
// windows overlapping at stride 1, so feature extraction, voting, the
// summarizer, frame encoding and live SSE delivery outweigh the
// simulator about six to one — the opposite mix to paper-diagnosis. (As
// first planned, with CoMD running and stride 2, the simulator was 77 %
// of the op and the workload a second paper-diagnosis.) There is no
// journal and no router, so journal and shard changes must not move it.
var liveDetect = &workload{
	name:        "live-detect",
	why:         "service hot path in memory: window pipeline, frame encode and live SSE dominate; starves journal and shard",
	unit:        "windows",
	cycles:      200,
	climbs:      80,
	heapLimitMB: 512,
	setup:       func(cfg runConfig) (instance, error) { return setupLive(cfg) },
	layers:      liveLayers,
}

const (
	liveOps      = 8
	liveNodes    = 4
	liveDuration = 60
	liveWindow   = 10
	liveStride   = 1
	// liveWindows is what one op classifies: every watched node yields
	// a window per stride once the first window has filled.
	liveWindows = liveNodes * ((liveDuration-liveWindow)/liveStride + 1)
)

// liveInputs draws the cycle's submissions from the seed: the same
// machine and pipeline every time, with the campaign's
// phase boundaries, cpuoccupy intensity and simulation seed varied —
// inputs that change what is detected when, not how much work it is.
func liveInputs(seed uint64) []api.JobRequest {
	rng := xrand.New(seed ^ 0x11fe0de7ec7)
	reqs := make([]api.JobRequest, liveOps)
	for i := range reqs {
		cpuFrom := 8 + rng.Intn(5)
		cpuTo := cpuFrom + 16 + rng.Intn(5)
		leakFrom := 36 + rng.Intn(5)
		leakTo := 52 + rng.Intn(7)
		reqs[i] = api.JobRequest{
			Nodes:      liveNodes,
			Duration:   liveDuration,
			Seed:       rng.Uint64()>>16 | 1,
			Campaign:   fmt.Sprintf("cpuoccupy@%d-%d:%d,memleak@%d-%d", cpuFrom, cpuTo, 90+rng.Intn(11), leakFrom, leakTo),
			WatchNodes: []int{0, 1, 2, 3},
			Window:     liveWindow,
			Stride:     liveStride,
		}
	}
	return reqs
}

type liveInstance struct {
	det    *hpas.Detector
	fit    time.Duration
	reqs   []api.JobRequest
	node   *serveNode
	cl     *hpasclient.Client
	cycle  []step
	digest []uint64
}

func setupLive(cfg runConfig) (*liveInstance, error) {
	l := &liveInstance{reqs: liveInputs(cfg.seed)}
	var err error
	if l.det, l.fit, err = trainDetector(cfg.seed, ""); err != nil {
		return nil, err
	}
	if l.node, err = startServe(l.det, ""); err != nil {
		return nil, err
	}
	l.cl = newClient(l.node.ts.URL, cfg.seed)
	for i, req := range l.reqs {
		req := req
		l.cycle = append(l.cycle, step{
			name: fmt.Sprintf("job-%d", i),
			work: liveWindows,
			op:   true,
			run: func(tr *tracer, parent int) (stepResult, error) {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				defer cancel()
				_, got, err := submitAndFollow(ctx, l.cl, req, tr, parent)
				if err != nil {
					return stepResult{}, err
				}
				if got.cpuEvents == 0 {
					return stepResult{}, fmt.Errorf("no cpuoccupy event among %d frames", got.frames)
				}
				return stepResult{first: got.first, digest: got.digest}, nil
			},
		})
	}
	if l.digest, err = warmUp(l.cycle); err != nil {
		return nil, errors.Join(err, l.close())
	}
	return l, nil
}

func (l *liveInstance) steps() []step  { return l.cycle }
func (l *liveInstance) want() []uint64 { return l.digest }
func (l *liveInstance) close() error   { return l.node.close() }

// finish checks the server's own books against the load generator's:
// every op one job, every job done.
func (l *liveInstance) finish(cycles int) []string {
	var bad []string
	st := l.node.mgr.Stats()
	if want := (cycles + 1) * liveOps; st.JobsSubmitted != want || int(st.JobsDone) != want {
		bad = append(bad, fmt.Sprintf("server tracked %d jobs (%d done), load generator ran %d", st.JobsSubmitted, st.JobsDone, want))
	}
	if st.GapsDropped != 0 {
		bad = append(bad, fmt.Sprintf("%d messages dropped past the follower", st.GapsDropped))
	}
	return bad
}

// liveLadderOps is how many of the cycle's ops the ladder climbs; the
// op's six rungs each cost about as much as the op.
const liveLadderOps = 1

// liveLayers climbs the service hot path to its top, direct HTTP, and
// sizes feature extraction, voting, the serve handlers and the client's
// parser inside their rungs by direct calls.
func liveLayers(in layerInput) (t *layerTable, err error) {
	l := in.inst.(*liveInstance)
	t = newLayerTable()
	ctx, cancel := context.WithTimeout(context.Background(), guard)
	defer cancel()

	node, err := startServe(l.det, "")
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, node.close()) }()
	jl := &jobLadder{ctx: ctx, mem: hpas.NewStreamManager(hpas.StreamConfig{}), node: node, cl: newClient(node.ts.URL, in.cfg.seed)}
	defer jl.mem.Close()

	var groups []ladderGroup
	stride := len(l.reqs) / liveLadderOps
	for i := stride / 2; i < len(l.reqs); i += stride {
		rungs, err := jl.rungs(l.reqs[i], false)
		if err != nil {
			return nil, err
		}
		groups = append(groups, ladderGroup{name: l.cycle[i].name, scale: float64(stride), rungs: rungs})
	}
	if err := t.climb(groups, in.repeats, in.tr, in.cycles); err != nil {
		return nil, err
	}

	spec, err := node.srv.BuildSpec(l.reqs[0])
	if err != nil {
		return nil, err
	}
	win, err := captureWindow(ctx, spec, liveWindow)
	if err != nil {
		return nil, err
	}
	extractUS, extractAllocs, votesUS, err := pipelineDirect(l.det, win)
	if err != nil {
		return nil, err
	}
	splitPipeline(t, extractUS, votesUS, liveOps*liveWindows)
	t.finishLadder()
	jl.jobMetrics(t, liveOps, liveOps*liveWindows, liveOps*win.samples, liveOps*jl.direct.frames, liveOps*liveDuration)
	t.set("features.extract_rows_us", extractUS)
	t.set("features.allocs_per_window", extractAllocs)
	t.set("ml.votes_us", votesUS)
	t.set("ml.fit_forest_ms", ms(l.fit))

	// The workload's own server holds every job of both passes.
	st := l.node.mgr.Stats()
	t.set("stream.frames_encoded", float64(st.FramesEncoded))
	t.set("stream.frame_cache_hits", float64(st.FrameCacheHits))
	t.set("stream.queue_wait_ms", quietDecile(queueWaits(l.node.mgr)))
	// Each op is one submit and one stream request.
	t.set("client.retries", float64(l.node.requests.Load()-int64(2*st.JobsSubmitted)))

	finished := l.node.mgr.Jobs()[0].ID()
	submitUS, streamUS, body, frames, err := serveDirect(l.node, finished)
	if err != nil {
		return nil, err
	}
	t.set("serve.submit_us", submitUS)
	t.set("serve.stream_us_per_frame", streamUS)
	parseUS, decodeUS, err := clientDirect(body, frames)
	if err != nil {
		return nil, err
	}
	t.set("client.parse_us_per_frame", parseUS)
	t.set("client.decode_us_per_frame", decodeUS)
	return t, nil
}
