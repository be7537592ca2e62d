package stream

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"hpas/internal/anomaly"
	"hpas/internal/apps"
	"hpas/internal/cluster"
	"hpas/internal/diagnose"
	"hpas/internal/features"
	"hpas/internal/ml"
	"hpas/internal/monitor"
	"hpas/internal/node"
	"hpas/internal/race"
	"hpas/internal/units"
	"hpas/internal/xrand"
)

// Alloc-budget ceilings for the streaming hot paths, enforced by
// running the corresponding benchmark once under plain `go test`. The
// budgets are deliberately generous multiples of the measured cost
// (quoted in DESIGN.md's hot-path section) so they catch a regression
// class — e.g. a per-message allocation sneaking back into a
// per-follower loop — without flaking on allocator noise.
const (
	// replayAllocBudgetPerMsg bounds the replay fan-out path, which
	// serves frames out of the job's encoded log; measured ~0.01
	// allocs/msg (3 allocs per 256-message replay).
	replayAllocBudgetPerMsg = 1.0
	// appendAllocBudgetPerMsg bounds the live append→fan-out path with
	// 8 followers attached, counted exactly (allocations over messages,
	// not AllocsPerOp's truncation). Measured ~0.0003 allocs/msg on a
	// 2-vCPU host, where the followers trail the appender and rarely
	// block: the wake channel is made only when one is about to. The
	// ceiling is one channel per message, when every append finds a
	// follower waiting, plus the log's amortized growth.
	appendAllocBudgetPerMsg = 1.5
)

func skipIfAllocCountsUnreliable(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("alloc counts are skewed by -race instrumentation")
	}
	if testing.Short() {
		t.Skip("alloc budgets run full benchmarks; skipped in -short")
	}
}

func TestAllocBudgetFrameReplayFanout(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	res := testing.Benchmark(BenchmarkFrameReplayFanout)
	perMsg := float64(res.AllocsPerOp()) / (benchReplayMsgs + 1)
	if perMsg > replayAllocBudgetPerMsg {
		t.Fatalf("frame replay fan-out allocates %.3f allocs/msg (%d per %d-msg replay), budget %.2f",
			perMsg, res.AllocsPerOp(), benchReplayMsgs+1, replayAllocBudgetPerMsg)
	}
}

func TestAllocBudgetAppendFanout(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	res := testing.Benchmark(BenchmarkAppendFanout)
	perMsg := float64(res.MemAllocs) / float64(res.N)
	t.Logf("append fan-out allocates %.5f allocs/msg", perMsg)
	if perMsg > appendAllocBudgetPerMsg {
		t.Fatalf("append fan-out allocates %.3f allocs/msg, budget %.2f", perMsg, appendAllocBudgetPerMsg)
	}
}

// The window path: simulator tick → monitor sample → ring → features →
// votes. Unlike the fan-out budgets these are exact counts from
// testing.AllocsPerRun on warmed state, because the path is meant to
// allocate nothing of its own (DESIGN.md, "Window path").

// windowAllocBudget is what one Observe that closes a window may
// allocate: nothing, since Emit lends the pipeline's own Window.
const windowAllocBudget = 0

// forestDetector trains a small random forest over nMetrics×Count()
// features whose class follows the first metric's mean.
func forestDetector(t *testing.T, nMetrics int, window float64) *diagnose.Detector {
	t.Helper()
	rng := xrand.New(5)
	ds := &ml.Dataset{Classes: []string{"none", "hog"}}
	for i := 0; i < 60; i++ {
		x := make([]float64, nMetrics*features.Count())
		for k := range x {
			x[k] = rng.Norm(0, 1)
		}
		y := i % 2
		x[0] += 100 * float64(y)
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, y)
	}
	det, err := diagnose.Train(ds, window, 9)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestAllocBudgetWindowPath(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	const nMetrics, winN = 10, 10
	windows := 0
	p, err := NewPipeline(PipelineConfig{
		Detector: forestDetector(t, nMetrics, winN),
		Stride:   1, // once the window is full, every sample closes one
		Emit:     func(Message) { windows++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, nMetrics)
	for m := range names {
		names[m] = fmt.Sprintf("m%02d::test", m)
	}
	rng := xrand.New(2)
	s := monitor.Sample{Period: 1, Names: names, Values: make([]float64, nMetrics)}
	observe := func() {
		s.Time++
		for m := range s.Values {
			s.Values[m] = rng.Norm(0, 1)
		}
		p.Observe(s)
	}
	for i := 0; i < 2*winN; i++ { // fill the ring, grow every scratch
		observe()
	}
	before := windows
	allocs := testing.AllocsPerRun(200, observe)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if windows-before < 200 {
		t.Fatalf("only %d of 200 observes closed a window", windows-before)
	}
	if allocs > windowAllocBudget {
		t.Fatalf("a window-closing Observe allocates %.2f, budget %d", allocs, windowAllocBudget)
	}
}

// residentProc is a never-finishing process with a demand on every
// resource a node resolves.
type residentProc struct{}

func (residentProc) Name() string { return "resident" }
func (residentProc) Done() bool   { return false }
func (residentProc) Demand(float64) node.Demand {
	return node.Demand{CPU: 0.8, WorkingSet: 64 * units.MiB, APKI: 20, StreamBW: 2e9, Resident: units.GiB}
}
func (residentProc) Advance(_, dt float64, g node.Grant) node.Usage {
	return node.Usage{CPUSeconds: g.CPUShare * dt, Instructions: g.EffIPS(0, 20) * dt}
}

func TestAllocBudgetSimulatorTick(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	now := 0.0
	tick := func(tk func(now, dt float64)) func() {
		return func() { tk(now, 0.1); now += 0.1 }
	}

	c := cluster.New(cluster.Voltrino(4))
	for n := 0; n < c.NumNodes(); n++ {
		for cpu := 0; cpu < 6; cpu++ {
			c.Place(residentProc{}, n, cpu)
		}
	}
	nodeTick, clusterTick := tick(c.Node(0).Tick), tick(c.Tick)
	nodeTick()
	clusterTick()
	if allocs := testing.AllocsPerRun(100, nodeTick); allocs != 0 {
		t.Errorf("node.Tick over resident procs allocates %.1f per tick, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, clusterTick); allocs != 0 {
		t.Errorf("cluster.Tick over resident procs allocates %.1f per tick, want 0", allocs)
	}

	// The tick every paper figure runs: an application's 128 ranks with
	// their halo flows, a network anomaly, a bandwidth benchmark pair
	// and a filesystem client, so the network and the filesystem both
	// have something to resolve.
	app := cluster.New(cluster.Voltrino(4))
	profile, ok := apps.ByName("CoMD")
	if !ok {
		t.Fatal("no CoMD profile")
	}
	profile.Iterations = 1 << 20 // never finishes inside the test
	apps.Launch(app, profile, []int{0, 1, 2, 3}, app.Config().Machine.PhysCores())
	app.Place(anomaly.NewNetOccupy(0, 2), 0, -1)
	app.Place(apps.NewOSU(1, 3, 1<<20), 1, -1)
	app.Place(anomaly.NewIOBandwidth(units.GiB, 2), 2, -1)
	appTick := tick(app.Tick)
	appTick()
	if allocs := testing.AllocsPerRun(100, appTick); allocs != 0 {
		t.Errorf("cluster.Tick with an application, network flows and a filesystem client allocates %.1f per tick, want 0", allocs)
	}
}

// retainedPerJobBudget bounds what a finished, followed job keeps live:
// its spec and its encoded log, which frame followers read in place,
// and no wake channel. Measured 2 026 B; the budget is that plus 25 %.
const retainedPerJobBudget = 2532

// runFollowedJobs submits n short hog jobs one at a time and follows
// each through FollowFramesFrom to its done frame, as a streaming
// client does.
func runFollowedJobs(t *testing.T, m *Manager, seed uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		followJob(t, m, hogSpec(seed+uint64(i), 30))
	}
}

// followJob submits spec and follows the job through FollowFramesFrom
// to its done frame, returning the window frames it delivered.
func followJob(t *testing.T, m *Manager, spec JobSpec) (windows int) {
	t.Helper()
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var last Frame
	for f := range j.FollowFramesFrom(context.Background(), 0) {
		if f.Type == "window" {
			windows++
		}
		last = f
	}
	if last.Type != "done" {
		t.Fatalf("job %s stream ended on %q, want done", j.ID(), last.Type)
	}
	return windows
}

// streamingJobAllocBudget bounds what one in-memory streaming job
// allocates per classified window, end to end: submission, the
// simulation and its monitor, the pipeline, the encoded log, the event
// index and one frame follower. Measured 0.88–1.00 over twenty runs;
// the budget is the top of that plus 25 %.
const streamingJobAllocBudget = 1.25

func TestAllocBudgetStreamingJob(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	spec := func(seed uint64) JobSpec {
		s := hogSpec(seed, 120)
		s.Pipeline.Stride = 1 // a window per sample once the first fills
		return s
	}
	followJob(t, m, spec(1)) // warm the manager, the codec and the runtime
	const jobs = 5
	windows := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		windows += followJob(t, m, spec(uint64(2+i)))
	}
	runtime.ReadMemStats(&after)
	if want := jobs * (120 - 5 + 1); windows != want {
		t.Fatalf("%d jobs classified %d windows, want %d", jobs, windows, want)
	}
	perWindow := float64(after.Mallocs-before.Mallocs) / float64(windows)
	t.Logf("a streaming job allocates %.2f per window", perWindow)
	if perWindow > streamingJobAllocBudget {
		t.Fatalf("a streaming job allocates %.2f per window, budget %.2f", perWindow, streamingJobAllocBudget)
	}
}

// liveHeap is HeapAlloc after two collections: the first may leave
// finalizer-reachable garbage for the second.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func TestRetainedHeapPerFinishedJob(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	const warm, jobs = 50, 2000
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	runFollowedJobs(t, m, 1, warm)
	before := liveHeap()
	runFollowedJobs(t, m, warm+1, jobs)
	perJob := float64(liveHeap()-before) / jobs
	t.Logf("retained %.0f B per finished, followed job", perJob)
	if perJob > retainedPerJobBudget {
		t.Fatalf("a finished, followed job retains %.0f B, budget %d", perJob, retainedPerJobBudget)
	}
}

// TestRetentionSoak runs HPAS_SOAK_JOBS short followed jobs and checks
// that the heap a job leaves behind does not grow with the number of
// jobs already held: the second half's bytes per job must be within
// 10 % of the first half's. Skipped unless HPAS_SOAK_JOBS is set.
func TestRetentionSoak(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("HPAS_SOAK_JOBS"))
	if n < 2 {
		t.Skip("set HPAS_SOAK_JOBS to the number of jobs to soak")
	}
	skipIfAllocCountsUnreliable(t)
	const warm = 50
	half := n / 2
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	runFollowedJobs(t, m, 1, warm)
	h0 := liveHeap()
	runFollowedJobs(t, m, warm+1, half)
	h1 := liveHeap()
	runFollowedJobs(t, m, uint64(warm+1+half), half)
	h2 := liveHeap()
	first, second := float64(h1-h0)/float64(half), float64(h2-h1)/float64(half)
	t.Logf("%d jobs: %.0f B per job over the first half, %.0f B over the second", 2*half, first, second)
	if d := second - first; d > 0.1*first || d < -0.1*first {
		t.Fatalf("retained bytes per job moved %.0f → %.0f B between halves, more than 10 %%", first, second)
	}
}
