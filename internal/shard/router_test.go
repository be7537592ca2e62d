package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hpas"
	"hpas/api"
	"hpas/serve"
)

// testDetector is trained once and shared across all shard tests:
// training simulates labelled runs, the slowest part of the suite.
var (
	detOnce sync.Once
	testDet *hpas.Detector
	detErr  error
)

func detector(t testing.TB) *hpas.Detector {
	t.Helper()
	detOnce.Do(func() {
		ds, err := hpas.GenerateDataset(hpas.DatasetConfig{
			Apps:    []string{"CoMD"},
			Classes: []string{"none", "cpuoccupy"},
			Reps:    3,
			Window:  12,
			Warmup:  2,
			Seed:    31,
		})
		if err != nil {
			detErr = err
			return
		}
		testDet, detErr = hpas.TrainDetector(ds, 10, 31)
	})
	if detErr != nil {
		t.Fatalf("training test detector: %v", detErr)
	}
	return testDet
}

// localCluster is a router over n in-process shards.
type localCluster struct {
	rt     *Router
	names  []string
	locals map[string]*Local
	mgrs   map[string]*hpas.StreamManager
}

func newLocalCluster(t *testing.T, n, workers int) *localCluster {
	t.Helper()
	return newLocalClusterWith(t, n, hpas.StreamConfig{Workers: workers, Queue: 32})
}

// newLocalClusterWith is newLocalCluster with every shard's manager
// built from scfg.
func newLocalClusterWith(t *testing.T, n int, scfg hpas.StreamConfig) *localCluster {
	t.Helper()
	det := detector(t)
	c := &localCluster{
		locals: make(map[string]*Local, n),
		mgrs:   make(map[string]*hpas.StreamManager, n),
	}
	var members []Member
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard%d", i)
		mgr := hpas.NewStreamManager(scfg)
		l := NewLocal(mgr, serve.New(mgr, det, serve.Config{}))
		members = append(members, Member{Name: name, Backend: l})
		c.names = append(c.names, name)
		c.locals[name] = l
		c.mgrs[name] = mgr
	}
	rt, err := NewRouter(members, Config{
		CheckInterval: 100 * time.Millisecond,
		FailAfter:     2,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.rt = rt
	t.Cleanup(func() {
		if cerr := rt.Close(); cerr != nil {
			t.Errorf("router close: %v", cerr)
		}
	})
	return c
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// endless returns a submission that keeps producing windows until
// cancelled or orphaned — the tool for pinning a one-worker shard. The
// duration is sized to the simulator's speed, not to a scenario: an
// app-less node runs ~270 k simulated seconds per wall second, so this
// is about three seconds of one core. Scale it when the simulator gets
// faster, or the tests that rely on it start racing its completion.
func endless(seed uint64) api.JobRequest {
	return api.JobRequest{Seed: seed, Duration: 800000, Window: 10}
}

// waitState polls the routed view of gid until cond accepts its state.
func waitState(t *testing.T, c *localCluster, gid string, cond func(api.JobStatus) bool) api.JobStatus {
	t.Helper()
	ctx := ctxT(t)
	for {
		st, err := c.rt.Get(ctx, gid)
		if err != nil {
			t.Fatalf("get %s: %v", gid, err)
		}
		if cond(st) {
			return st
		}
		select {
		case <-ctx.Done():
			t.Fatalf("timeout waiting on %s (last %+v)", gid, st)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestRouterRoutesGetsAndListsDeterministically(t *testing.T) {
	c := newLocalCluster(t, 2, 2)
	ctx := ctxT(t)

	var gids []string
	for i := 0; i < 5; i++ {
		st, replayed, err := c.rt.Submit(ctx, api.JobRequest{Seed: uint64(i + 1), Duration: 20, Window: 10}, "")
		if err != nil || replayed {
			t.Fatalf("submit %d: replayed=%v err=%v", i, replayed, err)
		}
		// Gids derive deterministically from (epoch, member-set hash,
		// counter) — the agreement contract between replicated routers.
		want := gidFor(1, membersHash(c.names), i+1)
		if st.ID != want {
			t.Fatalf("submit %d assigned %q, want %q", i, st.ID, want)
		}
		if st.Stream != "/v1/jobs/"+want+"/stream" {
			t.Fatalf("routed stream path %q leaks the shard-local one", st.Stream)
		}
		gids = append(gids, st.ID)
	}

	// Every job runs to completion on its shard.
	for _, gid := range gids {
		st := waitState(t, c, gid, api.JobStatus.Final)
		if st.State != string(hpas.StreamJobDone) {
			t.Fatalf("%s ended %s (%s), want done", gid, st.State, st.Error)
		}
	}

	// The merged listing is gid-ordered and stable across calls.
	for round := 0; round < 3; round++ {
		jobs, err := c.rt.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != len(gids) {
			t.Fatalf("round %d: listed %d jobs, want %d", round, len(jobs), len(gids))
		}
		for i, st := range jobs {
			if st.ID != gids[i] {
				t.Fatalf("round %d: position %d holds %s, want %s", round, i, st.ID, gids[i])
			}
		}
	}

	// Ownership followed the rendezvous hash: per-shard route counts in
	// the topology match what the ring math predicts.
	want := map[string]int{}
	for _, gid := range gids {
		want[rendezvousOwner(gid, c.names)]++
	}
	topo := c.rt.Topology()
	if topo.Hashing != RingHashing {
		t.Fatalf("topology hashing %q, want %q", topo.Hashing, RingHashing)
	}
	for _, si := range topo.Shards {
		if si.Jobs != want[si.Name] {
			t.Fatalf("shard %s owns %d jobs, ring math says %d", si.Name, si.Jobs, want[si.Name])
		}
	}
}

func TestRouterIdempotencyReplay(t *testing.T) {
	c := newLocalCluster(t, 2, 2)
	ctx := ctxT(t)

	first, replayed, err := c.rt.Submit(ctx, endless(1), "key-a")
	if err != nil || replayed {
		t.Fatalf("first submit: replayed=%v err=%v", replayed, err)
	}
	again, replayed, err := c.rt.Submit(ctx, endless(1), "key-a")
	if err != nil || !replayed {
		t.Fatalf("repeat submit: replayed=%v err=%v", replayed, err)
	}
	if again.ID != first.ID {
		t.Fatalf("replay answered %s, want the original %s", again.ID, first.ID)
	}
	other, replayed, err := c.rt.Submit(ctx, endless(2), "key-b")
	if err != nil || replayed {
		t.Fatal("distinct key must create a distinct job")
	}
	if other.ID == first.ID {
		t.Fatal("distinct key reused the original job")
	}
	if got := c.rt.Stats().Replays; got != 1 {
		t.Fatalf("replay counter = %d, want 1", got)
	}
}

// The HTTP surface must be indistinguishable from a single hpas-serve
// instance, plus the topology endpoint.
func TestRouterHTTPSurface(t *testing.T) {
	c := newLocalCluster(t, 2, 2)
	ts := httptest.NewServer(c.rt.Handler())
	t.Cleanup(ts.Close)

	post := func(key string) (*http.Response, api.JobStatus) {
		t.Helper()
		req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs",
			strings.NewReader(`{"seed":3,"duration":800000,"window":10}`))
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set(api.IdempotencyKeyHeader, key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st api.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp, st
	}

	resp, st := post("router-key")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh submit status %d, want 202", resp.StatusCode)
	}
	if resp.Header.Get(api.IdempotencyReplayedHeader) != "" {
		t.Fatal("fresh submit carries the replay marker")
	}
	resp2, st2 := post("router-key")
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get(api.IdempotencyReplayedHeader) != "true" {
		t.Fatalf("replayed submit: status %d, marker %q; want 200/true",
			resp2.StatusCode, resp2.Header.Get(api.IdempotencyReplayedHeader))
	}
	if st2.ID != st.ID {
		t.Fatalf("replay answered %s, want %s", st2.ID, st.ID)
	}

	var got api.JobStatus
	gresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(gresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK || got.ID != st.ID {
		t.Fatalf("get: %d %+v", gresp.StatusCode, got)
	}

	if r404, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		r404.Body.Close()
		if r404.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job status %d, want 404", r404.StatusCode)
		}
	}

	var topo api.Topology
	tresp, err := http.Get(ts.URL + "/v1/topology")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(tresp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if topo.Hashing != RingHashing || len(topo.Shards) != 2 || topo.Router.JobsRouted != 1 {
		t.Fatalf("topology = %+v", topo)
	}

	var ready api.RouterReady
	rresp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(rresp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || ready.Status != "ok" {
		t.Fatalf("readyz: %d %+v", rresp.StatusCode, ready)
	}

	// Cancel through the router reaches the owning shard.
	creq, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	var cst api.JobStatus
	if err := json.NewDecoder(cresp.Body).Decode(&cst); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", cresp.StatusCode)
	}
	waitState(t, c, st.ID, api.JobStatus.Final)
}

// Killing every shard flips readiness and turns submissions into 503s.
func TestRouterNoShardsLeft(t *testing.T) {
	c := newLocalCluster(t, 2, 1)
	ctx := ctxT(t)

	for _, l := range c.locals {
		l.Kill()
	}
	c.rt.CheckNow()
	c.rt.CheckNow() // FailAfter probes

	rr, code := c.rt.Ready()
	if code != http.StatusServiceUnavailable || rr.Status != "no-shards" {
		t.Fatalf("ready after total loss = %d %q", code, rr.Status)
	}
	if _, _, err := c.rt.Submit(ctx, endless(9), ""); err == nil {
		t.Fatal("submit with no shards succeeded")
	} else if status := httpStatusFor(err); status != http.StatusServiceUnavailable {
		t.Fatalf("no-shards submit maps to %d, want 503 (%v)", status, err)
	}
}

// A route keeps its submission only while it may be re-placed: once
// its status is final — done, cancelled, or failed by shard loss —
// neither the decoded request nor its wire bytes stay reachable from
// the route table.
func TestRouterDropsSubmissionOfFinalRoute(t *testing.T) {
	c := newLocalCluster(t, 2, 1)
	ctx := ctxT(t)
	submit := func(req api.JobRequest) string {
		t.Helper()
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := c.rt.SubmitRaw(ctx, req, raw, "")
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	holds := func(gid string) (req, raw bool) {
		c.rt.mu.Lock()
		defer c.rt.mu.Unlock()
		r := c.rt.routes[gid]
		return !reflect.DeepEqual(r.req, api.JobRequest{}), r.raw != nil
	}
	dropped := func(gid, how string) {
		t.Helper()
		if req, raw := holds(gid); req || raw {
			t.Errorf("%s route %s still holds its submission (request %v, wire bytes %v)", how, gid, req, raw)
		}
	}

	done := submit(api.JobRequest{Seed: 1, Duration: 20, Window: 10})
	waitState(t, c, done, api.JobStatus.Final)
	dropped(done, "a done")

	live := submit(endless(2))
	if req, raw := holds(live); !req || !raw {
		t.Fatalf("a live route dropped its submission (request %v, wire bytes %v); failover could not re-place it", req, raw)
	}
	if _, err := c.rt.Cancel(ctx, live); err != nil {
		t.Fatal(err)
	}
	dropped(live, "a cancelled")

	lost := submit(endless(3))
	waitState(t, c, lost, func(st api.JobStatus) bool { return st.State == string(hpas.StreamJobRunning) })
	c.locals[rendezvousOwner(lost, c.names)].Kill()
	c.rt.CheckNow()
	c.rt.CheckNow() // FailAfter probes
	if st := waitState(t, c, lost, api.JobStatus.Final); !strings.Contains(st.Error, "failed-by-shard-loss") {
		t.Fatalf("running job on a dead shard ended %s (%q), want failed-by-shard-loss", st.State, st.Error)
	}
	dropped(lost, "a lost")
}

// The failover contract: killing a shard re-places its queued jobs on
// the survivor under the same idempotency key (no duplicates) and
// finalizes its running jobs as failed-by-shard-loss, while the merged
// listing keeps its order.
func TestRouterFailoverRequeuesQueuedAndFinalizesRunning(t *testing.T) {
	c := newLocalCluster(t, 2, 1)
	ctx := ctxT(t)

	// Pin both single-worker shards and stack queued work behind them.
	byShard := map[string][]string{}
	for i := 0; i < 8; i++ {
		st, _, err := c.rt.Submit(ctx, endless(uint64(i+1)), "")
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		owner := rendezvousOwner(st.ID, c.names)
		byShard[owner] = append(byShard[owner], st.ID)
	}
	for _, name := range c.names {
		if len(byShard[name]) < 2 {
			t.Fatalf("shard %s owns %d jobs; the fixture needs 1 running + ≥1 queued per shard (distribution %v)", name, len(byShard[name]), byShard)
		}
	}

	// Each shard's first-placed job grabs the lone worker.
	victim := rendezvousOwner(gidFor(1, membersHash(c.names), 1), c.names)
	survivor := c.names[0]
	if survivor == victim {
		survivor = c.names[1]
	}
	runningGid := byShard[victim][0]
	waitState(t, c, runningGid, func(st api.JobStatus) bool { return st.State == string(hpas.StreamJobRunning) })
	queuedGids := byShard[victim][1:]
	survivorBefore := len(c.mgrs[survivor].Jobs())

	// Refresh observations, then kill the victim and let the health
	// loop's threshold trip.
	c.rt.CheckNow()
	before, err := c.rt.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c.locals[victim].Kill()
	c.rt.CheckNow()
	c.rt.CheckNow()

	// Running job: finalized, loudly.
	st, err := c.rt.Get(ctx, runningGid)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != string(hpas.StreamJobFailed) || !strings.Contains(st.Error, "failed-by-shard-loss") {
		t.Fatalf("running job on dead shard = %s (%q), want failed-by-shard-loss", st.State, st.Error)
	}

	// Queued jobs: alive on the survivor, exactly once each.
	for _, gid := range queuedGids {
		st, err := c.rt.Get(ctx, gid)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == string(hpas.StreamJobFailed) {
			t.Fatalf("queued job %s was lost (%q), want re-placed", gid, st.Error)
		}
		// Re-submitting the route's key directly to the survivor must
		// replay, proving the failover submission was registered there
		// and a retry cannot double-run the job.
		_, replayed, err := c.locals[survivor].Submit(ctx, endless(1), "hpasr-"+gid)
		if err != nil || !replayed {
			t.Fatalf("key hpasr-%s on survivor: replayed=%v err=%v; failover submission not deduplicated", gid, replayed, err)
		}
	}
	if got := len(c.mgrs[survivor].Jobs()); got != survivorBefore+len(queuedGids) {
		t.Fatalf("survivor holds %d jobs, want %d: duplicates or losses in failover", got, survivorBefore+len(queuedGids))
	}

	stats := c.rt.Stats()
	if stats.Resubmitted != int64(len(queuedGids)) || stats.JobsLost != 1 || stats.ShardsDown != 1 {
		t.Fatalf("stats after failover = %+v", stats)
	}

	// The merged listing survives the shard loss in the same order.
	after, err := c.rt.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("listing shrank from %d to %d across failover", len(before), len(after))
	}
	for i := range after {
		if after[i].ID != before[i].ID {
			t.Fatalf("listing order changed at %d: %s -> %s", i, before[i].ID, after[i].ID)
		}
	}
}

// A follower streaming a job whose shard dies receives a clean
// synthetic terminal frame at the next log index instead of a hang or
// a silent cut. Lag dropping is off (FollowLimit < 0): the job outruns
// a follower attached at 0 by more than the default limit, and this
// test requires every frame up to the shard-loss one.
func TestRouterStreamSynthesizesShardLossFrame(t *testing.T) {
	c := newLocalClusterWith(t, 2, hpas.StreamConfig{Workers: 1, Queue: 32, FollowLimit: -1})
	ctx := ctxT(t)

	st, _, err := c.rt.Submit(ctx, endless(21), "")
	if err != nil {
		t.Fatal(err)
	}
	gid := st.ID
	victim := rendezvousOwner(gid, c.names)
	waitState(t, c, gid, func(st api.JobStatus) bool { return st.State == string(hpas.StreamJobRunning) })
	c.rt.CheckNow() // record the running state

	var mu sync.Mutex
	var msgs []hpas.StreamMessage
	done := make(chan error, 1)
	go func() {
		done <- c.rt.Stream(ctx, gid, 0, func(m hpas.StreamMessage) error {
			mu.Lock()
			msgs = append(msgs, m)
			mu.Unlock()
			return nil
		})
	}()

	// Let a few real messages through, then kill the owner.
	deadline := time.After(60 * time.Second)
	for {
		mu.Lock()
		n := len(msgs)
		mu.Unlock()
		if n >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("follower never saw 3 messages")
		case <-time.After(20 * time.Millisecond):
		}
	}
	c.locals[victim].Kill()
	c.rt.CheckNow()
	c.rt.CheckNow()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream ended with %v, want the synthetic done frame", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("stream never terminated after shard loss")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, m := range msgs {
		if m.Seq != i {
			t.Fatalf("message %d carries seq %d; delivery must be contiguous and exactly-once", i, m.Seq)
		}
	}
	last := msgs[len(msgs)-1]
	if last.Type != "done" || last.State != hpas.StreamJobFailed || !strings.Contains(last.Error, "failed-by-shard-loss") {
		t.Fatalf("terminal frame = %+v, want done/failed-by-shard-loss", last)
	}
}

// flappyBackend fails health checks on demand, for rejoin testing
// without tearing real infrastructure down and up.
type flappyBackend struct {
	Backend
	mu   sync.Mutex
	fail bool
}

func (f *flappyBackend) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

func (f *flappyBackend) Check(ctx context.Context) (api.ShardHealth, error) {
	f.mu.Lock()
	fail := f.fail
	f.mu.Unlock()
	if fail {
		return api.ShardHealth{}, ErrShardDown
	}
	return f.Backend.Check(ctx)
}

// A shard that stops answering probes leaves the ring; when it answers
// again it rejoins and takes new placements.
func TestRouterShardRejoinsAfterRecovery(t *testing.T) {
	det := detector(t)
	mgr := hpas.NewStreamManager(hpas.StreamConfig{Workers: 1, Queue: 8})
	flappy := &flappyBackend{Backend: NewLocal(mgr, serve.New(mgr, det, serve.Config{}))}
	rt, err := NewRouter([]Member{{Name: "shard0", Backend: flappy}}, Config{
		CheckInterval: time.Hour, // driven manually
		FailAfter:     2,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cerr := rt.Close(); cerr != nil {
			t.Errorf("router close: %v", cerr)
		}
	})

	flappy.setFail(true)
	rt.CheckNow()
	if countAlive(rt) != 1 {
		t.Fatal("one failed probe must not demote the shard yet")
	}
	rt.CheckNow()
	if countAlive(rt) != 0 {
		t.Fatal("shard still in the ring after FailAfter probes")
	}

	flappy.setFail(false)
	rt.CheckNow()
	if countAlive(rt) != 1 {
		t.Fatal("recovered shard did not rejoin")
	}
	stats := rt.Stats()
	if stats.ShardsDown != 1 || stats.ShardsRecovered != 1 {
		t.Fatalf("stats = %+v, want one down and one recovery", stats)
	}
	ctx := ctxT(t)
	if _, _, err := rt.Submit(ctx, endless(5), ""); err != nil {
		t.Fatalf("submit after rejoin: %v", err)
	}
}

func countAlive(rt *Router) int {
	n := 0
	for _, s := range rt.snapshotShards() {
		if s.Alive {
			n++
		}
	}
	return n
}
