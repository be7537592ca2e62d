package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"time"

	"hpas"
	"hpas/api"
	hpasclient "hpas/client"
	"hpas/internal/shard"
	"hpas/internal/xrand"
)

// routedJobs is the control plane: small jobs through a router in front
// of two journaled HTTP shards. Per-job overhead — placement,
// idempotency keys, the queue, journal create/append/terminal sync, the
// proxy hop — is everything, the simulator and pipeline nothing, and
// live_heap_mb is the cost of the route and job tables nothing evicts.
var routedJobs = &workload{
	name:        "routed-jobs",
	why:         "control plane: router, placement, idempotency, journal sync and proxy hop per tiny job; starves sim and pipeline",
	unit:        "jobs",
	cycles:      1100,
	climbs:      440,
	heapLimitMB: 1024,
	setup:       func(cfg runConfig) (instance, error) { return setupRouted(cfg) },
	layers:      routedLayers,
}

// A routed job is the smallest that still emits a stream worth
// journaling: one node observed for 1 s, sampled every quarter second
// into four disjoint windows of one sample each. The simulator's cost
// goes with the seconds simulated, about 4 µs a node-second plus 2 µs to
// build the machine, so the 2 nodes × 40 s first planned for this
// workload would have made it a quarter of the op (and 1 node × 4 s a
// sixteenth); at one node-second it is a fortieth and the op is the
// control plane's.
const (
	routedOps      = 16
	routedShards   = 2
	routedWindows  = 4
	routedPeriod   = 0.25 // seconds per sample and per window
	routedDuration = routedWindows * routedPeriod
)

// routedInputs draws the cycle's submissions from the seed: the same
// tiny machine and pipeline every time, under one cpuoccupy phase whose
// bounds and intensity vary.
func routedInputs(seed uint64) []api.JobRequest {
	rng := xrand.New(seed ^ 0x2007ed10b5)
	reqs := make([]api.JobRequest, routedOps)
	for i := range reqs {
		reqs[i] = api.JobRequest{
			Nodes:        1,
			Duration:     routedDuration,
			SamplePeriod: routedPeriod,
			Seed:         rng.Uint64()>>16 | 1,
			Campaign:     fmt.Sprintf("cpuoccupy@%g-%g:%d", routedPeriod, routedPeriod*float64(2+rng.Intn(2)), 90+rng.Intn(11)),
			Window:       routedPeriod,
		}
	}
	return reqs
}

// routedStack is a router over two journaled hpas-serve shards reached
// over HTTP, with the router's own HTTP front and one client on it.
type routedStack struct {
	nodes    []*serveNode
	dirs     []string
	rt       *shard.Router
	front    *httptest.Server
	requests atomic.Int64 // requests that reached the router
	cl       *hpasclient.Client
}

func newRoutedStack(det *hpas.Detector, dataDir string, seed uint64) (*routedStack, error) {
	s := &routedStack{}
	var members []shard.Member
	for i := 0; i < routedShards; i++ {
		dir := filepath.Join(dataDir, fmt.Sprintf("shard%d", i))
		n, err := startServe(det, dir)
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.nodes = append(s.nodes, n)
		s.dirs = append(s.dirs, dir)
		members = append(members, shard.Member{
			Name: fmt.Sprintf("shard%d", i),
			Addr: n.ts.URL,
			Backend: shard.NewRemote(n.ts.URL, shard.RemoteOptions{
				Client: hpasclient.Options{Seed: int64(seed<<8 | uint64(i) | 1)},
			}),
		})
	}
	// The health prober is parked: its probe round lists every job of
	// every shard and walks every route, on a timer, so left running it
	// would make allocation counts depend on how long the host took.
	// The traced run measures one probe round directly instead.
	rt, err := shard.NewRouter(members, shard.Config{CheckInterval: time.Hour})
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.rt = rt
	s.front = httptest.NewServer(counted(rt.Handler(), &s.requests))
	s.cl = newClient(s.front.URL, seed)
	return s, nil
}

func (s *routedStack) close() error {
	if s.front != nil {
		s.front.Close()
	}
	var first error
	if s.rt != nil {
		first = s.rt.Close()
	}
	for _, n := range s.nodes {
		if err := n.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// opPhases times the phases of the job op — submit, stream to done,
// status read — so a routed op and a direct one can be compared phase
// by phase.
type opPhases struct {
	submit, stream, get []float64 // µs
	frames              int
}

func (p *opPhases) run(ctx context.Context, cl *hpasclient.Client, req api.JobRequest, get bool) error {
	t0 := time.Now()
	st, err := cl.Submit(ctx, req)
	if err != nil {
		return err
	}
	t1 := time.Now()
	got, err := followFrames(ctx, cl, st.ID, 0, t0)
	if err != nil {
		return err
	}
	t2 := time.Now()
	p.frames = got.frames
	p.submit = append(p.submit, us(t1.Sub(t0)))
	p.stream = append(p.stream, us(t2.Sub(t1)))
	if get {
		if _, err := cl.Get(ctx, st.ID); err != nil {
			return err
		}
		p.get = append(p.get, us(time.Since(t2)))
	}
	return nil
}

type routedInstance struct {
	*routedStack
	det    *hpas.Detector
	fit    time.Duration
	reqs   []api.JobRequest
	seen   map[string]bool // every gid the router handed out
	cycle  []step
	digest []uint64
}

func setupRouted(cfg runConfig) (*routedInstance, error) {
	r := &routedInstance{reqs: routedInputs(cfg.seed), seen: make(map[string]bool)}
	var err error
	if r.det, r.fit, err = trainDetector(cfg.seed, ""); err != nil {
		return nil, err
	}
	if r.routedStack, err = newRoutedStack(r.det, cfg.dataDir, cfg.seed); err != nil {
		return nil, err
	}
	for i, req := range r.reqs {
		req := req
		r.cycle = append(r.cycle, step{
			name: fmt.Sprintf("job-%02d", i),
			work: 1,
			op:   true,
			run: func(tr *tracer, parent int) (stepResult, error) {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				defer cancel()
				st, got, err := submitAndFollow(ctx, r.cl, req, tr, parent)
				if err != nil {
					return stepResult{}, err
				}
				if r.seen[st.ID] {
					return stepResult{}, fmt.Errorf("router handed out job id %s twice", st.ID)
				}
				r.seen[st.ID] = true
				sp := tr.child("get", parent)
				final, err := r.cl.Get(ctx, st.ID)
				tr.end(sp)
				if err != nil {
					return stepResult{}, fmt.Errorf("get %s: %w", st.ID, err)
				}
				if final.State != string(hpas.StreamJobDone) {
					return stepResult{}, fmt.Errorf("job %s is %q after its done frame", st.ID, final.State)
				}
				return stepResult{first: got.first, digest: got.digest}, nil
			},
		})
	}
	if r.digest, err = warmUp(r.cycle); err != nil {
		return nil, errors.Join(err, r.close())
	}
	return r, nil
}

func (r *routedInstance) steps() []step  { return r.cycle }
func (r *routedInstance) want() []uint64 { return r.digest }

// finish is the exactly-once check: the shards together hold one job
// per op, all done, none journaled with an error.
func (r *routedInstance) finish(cycles int) []string {
	var bad []string
	want := (cycles + 1) * routedOps
	jobs, done, journalErrs := 0, int64(0), int64(0)
	for _, n := range r.nodes {
		st := n.mgr.Stats()
		jobs += st.JobsSubmitted
		done += st.JobsDone
		journalErrs += st.JournalErrors
		if st.JournalDegraded {
			bad = append(bad, "a shard's journal degraded to in-memory mode")
		}
	}
	if jobs != want || int(done) != want {
		bad = append(bad, fmt.Sprintf("shards hold %d jobs (%d done) for %d ops", jobs, done, want))
	}
	if len(r.seen) != want {
		bad = append(bad, fmt.Sprintf("router handed out %d distinct job ids for %d ops", len(r.seen), want))
	}
	if journalErrs != 0 {
		bad = append(bad, fmt.Sprintf("%d journal errors", journalErrs))
	}
	return bad
}

// routedLadderOps is how many of the cycle's ops the ladder climbs,
// taken from the middle of their stretch of the cycle: the cycle's first
// op runs cold and reads 7 % above the fifteen after it.
const routedLadderOps = 2

// routedLayers climbs the control plane on a second routed stack of its
// own: the job's rungs up to direct HTTP against one journaled shard,
// then the same op through the router.
func routedLayers(in layerInput) (t *layerTable, err error) {
	r := in.inst.(*routedInstance)
	t = newLayerTable()
	ctx, cancel := context.WithTimeout(context.Background(), guard)
	defer cancel()

	stack, err := newRoutedStack(r.det, filepath.Join(in.cfg.dataDir, "ladder"), in.cfg.seed+1)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, stack.close()) }()
	jl := &jobLadder{ctx: ctx, mem: hpas.NewStreamManager(hpas.StreamConfig{}), node: stack.nodes[0], cl: newClient(stack.nodes[0].ts.URL, in.cfg.seed)}
	defer jl.mem.Close()

	var (
		groups []ladderGroup
		routed opPhases
		stride = len(r.reqs) / routedLadderOps
	)
	for i := stride / 2; i < len(r.reqs); i += stride {
		req := r.reqs[i]
		rungs, err := jl.rungs(req, true)
		if err != nil {
			return nil, err
		}
		rungs = append(rungs, rung{name: "routed", layer: "shard", run: func() error {
			return routed.run(ctx, stack.cl, req, true)
		}})
		groups = append(groups, ladderGroup{name: r.cycle[i].name, scale: float64(stride), rungs: rungs})
	}
	if err := t.climb(groups, in.repeats, in.tr, in.cycles); err != nil {
		return nil, err
	}

	spec, err := stack.nodes[0].srv.BuildSpec(r.reqs[0])
	if err != nil {
		return nil, err
	}
	win, err := captureWindow(ctx, spec, 1)
	if err != nil {
		return nil, err
	}
	extractUS, extractAllocs, votesUS, err := pipelineDirect(r.det, win)
	if err != nil {
		return nil, err
	}
	splitPipeline(t, extractUS, votesUS, routedOps*routedWindows)
	t.finishLadder()
	jl.jobMetrics(t, routedOps, routedOps*routedWindows, routedOps*win.samples, routedOps*jl.direct.frames, routedOps*routedDuration)
	t.set("features.extract_rows_us", extractUS)
	t.set("features.allocs_per_window", extractAllocs)
	t.set("ml.votes_us", votesUS)
	t.set("ml.fit_forest_ms", ms(r.fit))

	// Routed minus direct, phase by phase; the two rungs alternate, so
	// they saw the same host.
	t.set("shard.submit_hop_us", quietDecile(routed.submit)-quietDecile(jl.direct.submit))
	t.set("shard.stream_hop_us_per_frame", (quietDecile(routed.stream)-quietDecile(jl.direct.stream))/float64(routed.frames))
	t.set("shard.get_us", quietDecile(routed.get))

	// The workload's own stack holds every job of both passes.
	var (
		jobs                     int
		encoded, hits, journalEr int64
		waits                    []float64
		journalBytes             int64
	)
	for i, n := range r.nodes {
		st := n.mgr.Stats()
		jobs += st.JobsSubmitted
		encoded += st.FramesEncoded
		hits += st.FrameCacheHits
		journalEr += st.JournalErrors
		waits = append(waits, queueWaits(n.mgr)...)
		b, err := dirBytes(r.dirs[i])
		if err != nil {
			return nil, err
		}
		journalBytes += b
	}
	t.set("stream.frames_encoded", float64(encoded))
	t.set("stream.frame_cache_hits", float64(hits))
	t.set("stream.queue_wait_ms", quietDecile(waits))
	t.set("journal.errors", float64(journalEr))
	t.set("journal.bytes_per_job", float64(journalBytes)/float64(jobs))
	// Each op is one submit, one stream and one status request.
	t.set("client.retries", float64(r.requests.Load()-int64(3*jobs)))
	t.set("shard.probe_round_ms", quietMicros(5, r.rt.CheckNow)/1e3)

	appendUS, syncUS, err := journalDirect(filepath.Join(in.cfg.dataDir, "direct-journal"))
	if err != nil {
		return nil, err
	}
	t.set("journal.append_us", appendUS)
	t.set("journal.state_sync_us", syncUS)

	finished := r.nodes[0].mgr.Jobs()[0].ID()
	submitUS, streamUS, body, frames, err := serveDirect(r.nodes[0], finished)
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

	heapKB, err := routeTableHeapKB(ctx, r.reqs[0])
	if err != nil {
		return nil, err
	}
	t.set("shard.heap_kb_per_job", heapKB)
	return t, nil
}

// stubBackend is a shard that accepts every job and finishes it at
// once, holding nothing, so a router over it retains only its own
// tables.
type stubBackend struct{ n atomic.Int64 }

var errStub = errors.New("benchmark stub shard: not implemented")

func (b *stubBackend) Submit(ctx context.Context, req api.JobRequest, key string) (api.JobStatus, bool, error) {
	id := fmt.Sprintf("j%04d", b.n.Add(1))
	return api.JobStatus{ID: id, State: string(hpas.StreamJobDone), Stream: "/v1/jobs/" + id + "/stream"}, false, nil
}
func (b *stubBackend) Get(context.Context, string) (api.JobStatus, error) {
	return api.JobStatus{}, errStub
}
func (b *stubBackend) List(context.Context) ([]api.JobStatus, error) { return nil, errStub }
func (b *stubBackend) Cancel(context.Context, string) (api.JobStatus, error) {
	return api.JobStatus{}, errStub
}
func (b *stubBackend) Stream(context.Context, string, int, func(hpas.StreamMessage) error) error {
	return errStub
}
func (b *stubBackend) StreamFrames(context.Context, string, int, func(hpas.StreamFrame) error) error {
	return errStub
}
func (b *stubBackend) Check(context.Context) (api.ShardHealth, error) {
	return api.ShardHealth{Status: "ok"}, nil
}
func (b *stubBackend) Metrics(context.Context) (hpas.StreamStats, error) {
	return hpas.StreamStats{}, errStub
}
func (b *stubBackend) Handoff(context.Context, string, int, func([]byte) error) error { return errStub }
func (b *stubBackend) Adopt(context.Context, string, [][]byte) (api.JobStatus, bool, error) {
	return api.JobStatus{}, false, errStub
}
func (b *stubBackend) Close() error { return nil }

// routeTableHeapKB routes jobs onto stub shards and reports the heap
// the router keeps per job: its route table, order list and key index.
func routeTableHeapKB(ctx context.Context, req api.JobRequest) (float64, error) {
	rt, err := shard.NewRouter([]shard.Member{
		{Name: "stub0", Backend: &stubBackend{}},
		{Name: "stub1", Backend: &stubBackend{}},
	}, shard.Config{CheckInterval: time.Hour})
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	const jobs = 4000
	before := liveHeapBytes()
	for i := 0; i < jobs; i++ {
		if _, _, err := rt.Submit(ctx, req, ""); err != nil {
			return 0, err
		}
	}
	return (liveHeapBytes() - before) / jobs / 1024, nil
}
