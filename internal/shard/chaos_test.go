package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hpas"
	"hpas/api"
	hpasclient "hpas/client"
	"hpas/serve"
)

// httpShard is one journaled hpas-serve instance reachable over HTTP —
// the deployment shape the router exists for.
type httpShard struct {
	name string
	mgr  *hpas.StreamManager
	ts   *httptest.Server
}

// fastClientOptions keeps retry backoff test-sized.
func fastClientOptions(seed int64) hpasclient.Options {
	return hpasclient.Options{
		MaxRetries: 3,
		BaseDelay:  5 * time.Millisecond,
		MaxDelay:   50 * time.Millisecond,
		Seed:       seed,
	}
}

// TestChaosRouterSurvivesShardLossUnderLiveTraffic is the
// whole-subsystem proof: three journaled HTTP shards behind the
// router, every worker pinned by an endless job plus queued backlog on
// each shard, live SSE followers attached — then one shard's network
// goes away. The router must demote it, re-place its queued jobs under
// the original idempotency keys (zero duplicates, checked against the
// shard journals directly), finalize its running job as
// failed-by-shard-loss (the follower sees a terminal frame), keep
// survivor streams loss-free and duplicate-free, and keep the merged
// listing order identical before and after.
func TestChaosRouterSurvivesShardLossUnderLiveTraffic(t *testing.T) {
	det := detector(t)
	ctx := ctxT(t)

	const nShards = 3
	var (
		names  []string
		shards = map[string]*httpShard{}
		direct = map[string]*hpasclient.Client{}
	)
	var members []Member
	for i := 0; i < nShards; i++ {
		name := fmt.Sprintf("shard%d", i)
		store, _ := serve.OpenJournal(t.TempDir(), t.Logf)
		mgr := hpas.NewStreamManager(hpas.StreamConfig{Workers: 1, Queue: 32, Store: store})
		srv := serve.New(mgr, det, serve.Config{})
		ts := httptest.NewServer(srv.Handler())
		sh := &httpShard{name: name, mgr: mgr, ts: ts}
		names = append(names, name)
		shards[name] = sh
		direct[name] = hpasclient.New(ts.URL, fastClientOptions(int64(100+i)))
		members = append(members, Member{
			Name: name,
			Addr: ts.URL,
			Backend: NewRemote(ts.URL, RemoteOptions{
				Client:       fastClientOptions(int64(i)),
				ProbeTimeout: time.Second,
			}),
		})
		t.Cleanup(func() {
			ts.Close()
			mgr.Close()
		})
	}

	rt, err := NewRouter(members, Config{
		CheckInterval: 100 * time.Millisecond,
		FailAfter:     2,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := rt.Close(); err != nil {
			t.Errorf("router close: %v", err)
		}
	})
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	cl := hpasclient.New(rts.URL, fastClientOptions(42))

	// Concurrent submissions until every shard owns a worker-pinning
	// endless job plus queued backlog. Placement is rendezvous over the
	// full ring, so owners are predictable from the gid alone.
	byShard := map[string][]string{}
	var gids []string
	for i := 0; len(gids) < 30; i++ {
		st, replayed, err := cl.SubmitKeyed(ctx, endless(uint64(i)), fmt.Sprintf("chaos-%02d", i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if replayed {
			t.Fatalf("fresh submission %d reported as replay", i)
		}
		gids = append(gids, st.ID)
		owner := rendezvousOwner(st.ID, names)
		byShard[owner] = append(byShard[owner], st.ID)
		done := true
		for _, name := range names {
			if len(byShard[name]) < 3 {
				done = false
			}
		}
		if done {
			break
		}
	}
	for _, name := range names {
		if len(byShard[name]) < 3 {
			t.Fatalf("shard %s owns %d jobs; the fixture needs 1 running + ≥2 queued per shard (distribution %v)", name, len(byShard[name]), byShard)
		}
	}

	// With one worker per shard, the first job placed on each shard
	// runs forever and the rest stay queued behind it.
	waitGet := func(gid string, cond func(api.JobStatus) bool) api.JobStatus {
		t.Helper()
		for {
			st, err := cl.Get(ctx, gid)
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
	for _, name := range names {
		waitGet(byShard[name][0], func(st api.JobStatus) bool { return st.State == "running" })
	}

	victim := rendezvousOwner(gids[0], names)
	victimRunning := byShard[victim][0]
	victimQueued := byShard[victim][1:]
	var survivor string
	for _, name := range names {
		if name != victim {
			survivor = name
			break
		}
	}

	// Exactly-once delivery under a bounded live follow: seqs strictly
	// increase, and a jump is legal only on a "gap" frame (whose seq is
	// the last skipped index) — anything else is a lost or duplicated
	// message.
	checkExactlyOnce := func(label string, msgs []hpas.StreamMessage) {
		t.Helper()
		prev := -1
		for i, m := range msgs {
			if m.Seq <= prev {
				t.Fatalf("%s frame %d has seq %d after seq %d; delivery must be exactly-once", label, i, m.Seq, prev)
			}
			if m.Seq != prev+1 && m.Type != "gap" {
				t.Fatalf("%s frame %d (%s) jumped %d→%d without a gap frame; messages were lost silently", label, i, m.Type, prev, m.Seq)
			}
			prev = m.Seq
		}
	}
	// Live followers through the router: one on the job that is about
	// to die with its shard, one on a survivor's running job.
	type follow struct {
		mu   sync.Mutex
		msgs []hpas.StreamMessage
		err  error
		done chan struct{}
	}
	start := func(cctx context.Context, gid string) *follow {
		f := &follow{done: make(chan struct{})}
		go func() {
			defer close(f.done)
			f.err = cl.Stream(cctx, gid, 0, func(m hpas.StreamMessage) error {
				f.mu.Lock()
				f.msgs = append(f.msgs, m)
				f.mu.Unlock()
				return nil
			})
		}()
		return f
	}
	count := func(f *follow) int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.msgs)
	}
	survCtx, survCancel := context.WithCancel(ctx)
	defer survCancel()
	victimFollow := start(ctx, victimRunning)
	survFollow := start(survCtx, byShard[survivor][0])
	for count(victimFollow) < 3 || count(survFollow) < 3 {
		select {
		case <-ctx.Done():
			t.Fatal("followers never saw live traffic")
		case <-time.After(20 * time.Millisecond):
		}
	}

	before, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(gids) {
		t.Fatalf("listing holds %d jobs, want %d", len(before), len(gids))
	}
	survSeen := count(survFollow)

	// Partition the victim: connections die, its address stops
	// answering, but its manager keeps running — the router must not
	// assume a dead address means cleanly stopped work.
	shards[victim].ts.CloseClientConnections()
	shards[victim].ts.Close()
	rt.CheckNow()
	rt.CheckNow()

	// Queued victim jobs moved to their rendezvous successor; the
	// journaled idempotency key proves zero duplicates: re-submitting
	// the router's key directly at the new owner must replay, not run.
	survivors := []string{}
	for _, name := range names {
		if name != victim {
			survivors = append(survivors, name)
		}
	}
	for _, gid := range victimQueued {
		st := waitGet(gid, func(st api.JobStatus) bool { return st.State != "failed" })
		if st.Final() {
			t.Fatalf("re-placed job %s ended %s (%s); queued work must survive shard loss", gid, st.State, st.Error)
		}
		newOwner := rendezvousOwner(gid, survivors)
		rst, replayed, err := direct[newOwner].SubmitKeyed(ctx, endless(0), "hpasr-"+gid)
		if err != nil {
			t.Fatalf("probe submit for %s at %s: %v", gid, newOwner, err)
		}
		if !replayed {
			t.Fatalf("key hpasr-%s at %s started a new job %s; re-placement duplicated work", gid, newOwner, rst.ID)
		}
	}

	// The running victim job cannot be resumed — it is finalized loudly.
	st := waitGet(victimRunning, api.JobStatus.Final)
	if st.State != "failed" || !strings.Contains(st.Error, "failed-by-shard-loss") {
		t.Fatalf("victim's running job ended %s (%q), want failed-by-shard-loss", st.State, st.Error)
	}

	// Its follower got a terminal frame instead of a hung stream.
	select {
	case <-victimFollow.done:
	case <-ctx.Done():
		t.Fatal("victim follower still blocked after failover")
	}
	if victimFollow.err != nil {
		t.Fatalf("victim follower error: %v", victimFollow.err)
	}
	victimFollow.mu.Lock()
	vmsgs := victimFollow.msgs
	victimFollow.mu.Unlock()
	last := vmsgs[len(vmsgs)-1]
	if last.Type != "done" || !strings.Contains(last.Error, "failed-by-shard-loss") {
		t.Fatalf("victim follower's last frame = %+v, want a done frame carrying failed-by-shard-loss", last)
	}
	checkExactlyOnce("victim follower", vmsgs)

	// Survivor stream: unaffected, still flowing, no loss or duplication.
	for count(survFollow) <= survSeen {
		select {
		case <-ctx.Done():
			t.Fatal("survivor stream stalled after the victim died")
		case <-time.After(20 * time.Millisecond):
		}
	}
	survCancel()
	<-survFollow.done
	survFollow.mu.Lock()
	smsgs := survFollow.msgs
	survFollow.mu.Unlock()
	checkExactlyOnce("survivor follower", smsgs)

	// The merged listing still answers, in the same order.
	after, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("listing shrank from %d to %d jobs across failover", len(before), len(after))
	}
	for i := range before {
		if after[i].ID != before[i].ID {
			t.Fatalf("listing position %d changed from %s to %s; merged order must be stable across failover", i, before[i].ID, after[i].ID)
		}
	}

	stats := rt.Stats()
	if stats.ShardsDown != 1 || stats.JobsLost != 1 || int(stats.Resubmitted) != len(victimQueued) {
		t.Fatalf("stats = %+v, want 1 shard down, 1 job lost, %d resubmitted", stats, len(victimQueued))
	}
}

// TestChaosMembershipChurnUnderLiveTraffic is the dynamic-membership
// acceptance proof: a shard joins the ring over the admin API, another
// drains out gracefully, a third is crash-killed and replaced by a
// fresh process recovered from the dead member's journal — all with
// live submissions and SSE followers attached. Throughout: queued jobs
// are re-placed exactly once (proven by replaying the router's
// idempotency key directly at the inheriting shard), terminal
// histories move by journal handoff and replay byte-identically —
// Last-Event-ID resume included — lost routes are reclaimed from the
// replacement's recovered journal, no follower loses or duplicates a
// frame, and the merged listing keeps submission order.
func TestChaosMembershipChurnUnderLiveTraffic(t *testing.T) {
	det := detector(t)
	ctx := ctxT(t)

	type churnShard struct {
		name  string
		dir   string
		mgr   *hpas.StreamManager
		store hpas.StreamStore
		ts    *httptest.Server
	}
	shards := map[string]*churnShard{}
	direct := map[string]*hpasclient.Client{}
	newShard := func(name, dir string) *churnShard {
		t.Helper()
		store, recovered := serve.OpenJournal(dir, t.Logf)
		mgr := hpas.NewStreamManager(hpas.StreamConfig{Workers: 1, Queue: 32, Store: store})
		if err := mgr.Reopen(recovered); err != nil {
			t.Fatalf("reopening %s: %v", dir, err)
		}
		ts := httptest.NewServer(serve.New(mgr, det, serve.Config{}).Handler())
		sh := &churnShard{name: name, dir: dir, mgr: mgr, store: store, ts: ts}
		shards[name] = sh
		direct[name] = hpasclient.New(ts.URL, fastClientOptions(int64(100+len(shards))))
		t.Cleanup(func() {
			ts.Close()
			mgr.Close()
			if store != nil {
				store.Close()
			}
		})
		return sh
	}

	boot := []string{"shard0", "shard1"}
	var members []Member
	for i, name := range boot {
		sh := newShard(name, t.TempDir())
		members = append(members, Member{
			Name: name,
			Addr: sh.ts.URL,
			Backend: NewRemote(sh.ts.URL, RemoteOptions{
				Client:       fastClientOptions(int64(i)),
				ProbeTimeout: time.Second,
			}),
		})
	}
	rt, err := NewRouter(members, Config{
		CheckInterval: 100 * time.Millisecond,
		FailAfter:     2,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := rt.Close(); err != nil {
			t.Errorf("router close: %v", err)
		}
	})
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	cl := hpasclient.New(rts.URL, fastClientOptions(42))

	adminURL := rts.URL + "/v1/admin/members"
	postMember := func(name, addr string) (api.MemberChange, http.Header) {
		t.Helper()
		body := fmt.Sprintf(`{"name":%q,"addr":%q}`, name, addr)
		req, _ := http.NewRequestWithContext(ctx, "POST", adminURL, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ch api.MemberChange
		if err := json.NewDecoder(resp.Body).Decode(&ch); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("member add %s = %d (%+v), want 201", name, resp.StatusCode, ch)
		}
		return ch, resp.Header
	}
	deleteMember := func(name string, drain bool) api.MemberChange {
		t.Helper()
		url := adminURL + "/" + name
		if !drain {
			url += "?drain=false"
		}
		req, _ := http.NewRequestWithContext(ctx, "DELETE", url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ch api.MemberChange
		if err := json.NewDecoder(resp.Body).Decode(&ch); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("member remove %s = %d (%+v), want 200", name, resp.StatusCode, ch)
		}
		return ch
	}
	getMembers := func() api.MemberList {
		t.Helper()
		req, _ := http.NewRequestWithContext(ctx, "GET", adminURL, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ml api.MemberList
		if err := json.NewDecoder(resp.Body).Decode(&ml); err != nil {
			t.Fatal(err)
		}
		return ml
	}
	// sseBody captures a terminal job's raw SSE replay through the
	// router — the byte-identity oracle for handoff and reclaim.
	sseBody := func(gid, lastEventID string) string {
		t.Helper()
		req, _ := http.NewRequestWithContext(ctx, "GET", rts.URL+"/v1/jobs/"+gid+"/stream", nil)
		req.Header.Set("Accept", "text/event-stream")
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %s = %d, want 200", gid, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("stream %s: %v", gid, err)
		}
		return string(b)
	}
	waitGet := func(gid string, cond func(api.JobStatus) bool) api.JobStatus {
		t.Helper()
		for {
			st, err := cl.Get(ctx, gid)
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
	replay := func(gid string) []hpas.StreamMessage {
		t.Helper()
		var msgs []hpas.StreamMessage
		if err := cl.Stream(ctx, gid, 0, func(m hpas.StreamMessage) error {
			msgs = append(msgs, m)
			return nil
		}); err != nil {
			t.Fatalf("replay %s: %v", gid, err)
		}
		return msgs
	}
	marshal := func(v any) string {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	checkExactlyOnce := func(label string, msgs []hpas.StreamMessage) {
		t.Helper()
		prev := -1
		for i, m := range msgs {
			if m.Seq <= prev {
				t.Fatalf("%s frame %d has seq %d after seq %d; delivery must be exactly-once", label, i, m.Seq, prev)
			}
			if m.Seq != prev+1 && m.Type != "gap" {
				t.Fatalf("%s frame %d (%s) jumped %d→%d without a gap frame; messages were lost silently", label, i, m.Type, prev, m.Seq)
			}
			prev = m.Seq
		}
	}
	// replayCovers proves a terminal replay is the complete history every
	// live frame came from: seq-contiguous from 0, and every non-gap
	// frame a follower observed appears at its seq, byte-for-byte.
	replayCovers := func(label string, live, full []hpas.StreamMessage) {
		t.Helper()
		idx := map[int]string{}
		for i, m := range full {
			if m.Seq != i {
				t.Fatalf("%s: replay frame %d has seq %d; a journal replay must be gapless", label, i, m.Seq)
			}
			idx[m.Seq] = marshal(m)
		}
		for i, m := range live {
			if m.Type == "gap" {
				continue
			}
			got, ok := idx[m.Seq]
			if !ok {
				t.Fatalf("%s: live frame %d (seq %d) is missing from the replay", label, i, m.Seq)
			}
			if got != marshal(m) {
				t.Fatalf("%s: frame seq %d differs:\n live   %s\n replay %s", label, m.Seq, marshal(m), got)
			}
		}
	}

	// --- Join: a third shard enters the ring at runtime. ---
	sh2 := newShard("shard2", t.TempDir())
	ch, hdr := postMember("shard2", sh2.ts.URL)
	if ch.Epoch != 2 || hdr.Get(api.EpochHeader) != "2" {
		t.Fatalf("join bumped epoch to %d (header %q), want 2", ch.Epoch, hdr.Get(api.EpochHeader))
	}
	names := []string{"shard0", "shard1", "shard2"}
	// The new epoch watermarks ordinary traffic, not just admin calls.
	lreq, _ := http.NewRequestWithContext(ctx, "GET", rts.URL+"/v1/jobs", nil)
	lresp, err := http.DefaultClient.Do(lreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, lresp.Body)
	lresp.Body.Close()
	if got := lresp.Header.Get(api.EpochHeader); got != "2" {
		t.Fatalf("listing carries epoch %q, want 2", got)
	}

	// --- Fixture: finished history plus pinned workers on every shard. ---
	var order []string // every accepted gid, in submission order
	finished := map[string][]string{}
	for i := 0; ; i++ {
		if i > 24 {
			t.Fatalf("fixture: finished jobs never covered all shards: %v", finished)
		}
		st, replayed, err := cl.SubmitKeyed(ctx, api.JobRequest{Seed: uint64(i + 1), Duration: 25, Window: 10}, fmt.Sprintf("churn-fin-%02d", i))
		if err != nil {
			t.Fatalf("submit fin %d: %v", i, err)
		}
		if replayed {
			t.Fatalf("fresh submission %d reported as replay", i)
		}
		order = append(order, st.ID)
		owner := rendezvousOwner(st.ID, names)
		finished[owner] = append(finished[owner], st.ID)
		if len(finished["shard0"]) > 0 && len(finished["shard1"]) > 0 && len(finished["shard2"]) > 0 {
			break
		}
	}
	for _, name := range names {
		for _, gid := range finished[name] {
			if st := waitGet(gid, api.JobStatus.Final); st.State != "done" {
				t.Fatalf("finished-fixture job %s ended %s (%s)", gid, st.State, st.Error)
			}
		}
	}
	fullBefore, resumeBefore := map[string]string{}, map[string]string{}
	for _, name := range names {
		for _, gid := range finished[name] {
			fullBefore[gid] = sseBody(gid, "")
			resumeBefore[gid] = sseBody(gid, "1")
		}
	}

	endlessBy := map[string][]string{}
	for i := 0; ; i++ {
		if i > 40 {
			t.Fatalf("fixture: endless jobs never pinned all shards: %v", endlessBy)
		}
		st, _, err := cl.SubmitKeyed(ctx, endless(uint64(100+i)), fmt.Sprintf("churn-run-%02d", i))
		if err != nil {
			t.Fatalf("submit run %d: %v", i, err)
		}
		order = append(order, st.ID)
		owner := rendezvousOwner(st.ID, names)
		endlessBy[owner] = append(endlessBy[owner], st.ID)
		if len(endlessBy["shard0"]) >= 2 && len(endlessBy["shard1"]) >= 2 && len(endlessBy["shard2"]) >= 2 {
			break
		}
	}
	for _, name := range names {
		waitGet(endlessBy[name][0], func(st api.JobStatus) bool { return st.State == "running" })
	}

	drainee, killee, survivor := "shard2", "shard0", "shard1"

	type follow struct {
		mu   sync.Mutex
		msgs []hpas.StreamMessage
		err  error
		done chan struct{}
	}
	start := func(cctx context.Context, gid string) *follow {
		f := &follow{done: make(chan struct{})}
		go func() {
			defer close(f.done)
			f.err = cl.Stream(cctx, gid, 0, func(m hpas.StreamMessage) error {
				f.mu.Lock()
				f.msgs = append(f.msgs, m)
				f.mu.Unlock()
				return nil
			})
		}()
		return f
	}
	count := func(f *follow) int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.msgs)
	}
	snapshotMsgs := func(f *follow) []hpas.StreamMessage {
		f.mu.Lock()
		defer f.mu.Unlock()
		return append([]hpas.StreamMessage(nil), f.msgs...)
	}
	survCtx, survCancel := context.WithCancel(ctx)
	defer survCancel()
	survFollow := start(survCtx, endlessBy[survivor][0])
	drainFollow := start(ctx, endlessBy[drainee][0])
	killFollow := start(ctx, endlessBy[killee][0])
	for count(survFollow) < 3 || count(drainFollow) < 3 || count(killFollow) < 3 {
		select {
		case <-ctx.Done():
			t.Fatal("followers never saw live traffic")
		case <-time.After(20 * time.Millisecond):
		}
	}

	before, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(order) {
		t.Fatalf("listing holds %d jobs, want %d", len(before), len(order))
	}
	for i := range before {
		if before[i].ID != order[i] {
			t.Fatalf("listing position %d is %s, want submission order %s", i, before[i].ID, order[i])
		}
	}

	// --- Leave: drain the runtime-joined shard back out. ---
	draineeQueued := endlessBy[drainee][1:]
	ch = deleteMember(drainee, true)
	if !ch.Draining || ch.Epoch != 3 {
		t.Fatalf("drain start = %+v, want draining at epoch 3", ch)
	}
	if ch.Requeued != len(draineeQueued) || ch.HandedOff != len(finished[drainee]) || ch.Lost != 0 {
		t.Fatalf("drain start = %+v, want %d requeued, %d handed off, 0 lost",
			ch, len(draineeQueued), len(finished[drainee]))
	}
	remaining := []string{killee, survivor}
	for _, gid := range draineeQueued {
		st := waitGet(gid, func(st api.JobStatus) bool { return st.State != "failed" })
		if st.Final() {
			t.Fatalf("re-homed job %s ended %s (%s); queued work must survive a drain", gid, st.State, st.Error)
		}
		newOwner := rendezvousOwner(gid, remaining)
		rst, replayed, err := direct[newOwner].SubmitKeyed(ctx, endless(0), "hpasr-"+gid)
		if err != nil {
			t.Fatalf("probe submit for %s at %s: %v", gid, newOwner, err)
		}
		if !replayed {
			t.Fatalf("key hpasr-%s at %s started a new job %s; the drain duplicated work", gid, newOwner, rst.ID)
		}
		endlessBy[newOwner] = append(endlessBy[newOwner], gid)
	}
	for _, gid := range finished[drainee] {
		if got := sseBody(gid, ""); got != fullBefore[gid] {
			t.Fatalf("handed-off replay of %s is not byte-identical to the source", gid)
		}
		if got := sseBody(gid, "1"); got != resumeBefore[gid] {
			t.Fatalf("handed-off Last-Event-ID resume of %s is not byte-identical to the source", gid)
		}
	}
	// The draining member keeps serving its running job's live stream.
	draining := false
	for _, si := range rt.Topology().Shards {
		if si.Name == drainee && si.State == "draining" {
			draining = true
		}
	}
	if !draining {
		t.Fatalf("topology does not show %s draining: %+v", drainee, rt.Topology().Shards)
	}
	seen := count(drainFollow)
	for count(drainFollow) <= seen {
		select {
		case <-ctx.Done():
			t.Fatal("draining member stopped serving its running job's stream")
		case <-time.After(20 * time.Millisecond):
		}
	}

	// Finishing the running job (here: cancelling it) completes the
	// drain; the member detaches and the cancelled job's history is
	// handed off like any other terminal history.
	if _, err := cl.Cancel(ctx, endlessBy[drainee][0]); err != nil {
		t.Fatalf("cancel %s: %v", endlessBy[drainee][0], err)
	}
	select {
	case <-drainFollow.done:
	case <-ctx.Done():
		t.Fatal("drain follower still blocked after cancellation")
	}
	if drainFollow.err != nil {
		t.Fatalf("drain follower error: %v", drainFollow.err)
	}
	dmsgs := snapshotMsgs(drainFollow)
	if last := dmsgs[len(dmsgs)-1]; last.Type != "done" || last.State != hpas.StreamJobCancelled {
		t.Fatalf("drain follower's last frame = %+v, want a done/cancelled frame", last)
	}
	checkExactlyOnce("drain follower", dmsgs)
	for {
		ml := getMembers()
		if len(ml.Members) == 2 && ml.Epoch == 4 {
			break
		}
		rt.CheckNow()
		select {
		case <-ctx.Done():
			t.Fatalf("drained member never detached: %+v", getMembers())
		case <-time.After(20 * time.Millisecond):
		}
	}
	drainReplay := replay(endlessBy[drainee][0])
	replayCovers("drained job", dmsgs, drainReplay)
	if last := drainReplay[len(drainReplay)-1]; last.Type != "done" || last.State != hpas.StreamJobCancelled {
		t.Fatalf("handed-off terminal frame = %+v, want done/cancelled", last)
	}

	// --- Live traffic continues at the new epoch. ---
	for i := 0; i < 2; i++ {
		st, _, err := cl.SubmitKeyed(ctx, endless(uint64(200+i)), fmt.Sprintf("churn-mid-%02d", i))
		if err != nil {
			t.Fatalf("submit mid %d: %v", i, err)
		}
		if !strings.HasPrefix(st.ID, "g4-") {
			t.Fatalf("post-drain gid %s is not at epoch 4", st.ID)
		}
		order = append(order, st.ID)
		owner := rendezvousOwner(st.ID, remaining)
		endlessBy[owner] = append(endlessBy[owner], st.ID)
	}

	// --- Crash: a boot shard's network dies mid-traffic. ---
	killRunning := endlessBy[killee][0]
	killQueued := endlessBy[killee][1:]
	preKill := count(survFollow)
	shards[killee].ts.CloseClientConnections()
	shards[killee].ts.Close()
	rt.CheckNow()
	rt.CheckNow()
	for _, gid := range killQueued {
		st := waitGet(gid, func(st api.JobStatus) bool { return st.State != "failed" })
		if st.Final() {
			t.Fatalf("re-placed job %s ended %s (%s); queued work must survive shard loss", gid, st.State, st.Error)
		}
		rst, replayed, err := direct[survivor].SubmitKeyed(ctx, endless(0), "hpasr-"+gid)
		if err != nil {
			t.Fatalf("probe submit for %s at %s: %v", gid, survivor, err)
		}
		if !replayed {
			t.Fatalf("key hpasr-%s at %s started a new job %s; failover duplicated work", gid, survivor, rst.ID)
		}
	}
	if st := waitGet(killRunning, api.JobStatus.Final); st.State != "failed" || !strings.Contains(st.Error, "failed-by-shard-loss") {
		t.Fatalf("killed shard's running job ended %s (%q), want failed-by-shard-loss", st.State, st.Error)
	}
	select {
	case <-killFollow.done:
	case <-ctx.Done():
		t.Fatal("kill follower still blocked after failover")
	}
	if killFollow.err != nil {
		t.Fatalf("kill follower error: %v", killFollow.err)
	}
	kmsgs := snapshotMsgs(killFollow)
	if last := kmsgs[len(kmsgs)-1]; last.Type != "done" || !strings.Contains(last.Error, "failed-by-shard-loss") {
		t.Fatalf("kill follower's last frame = %+v, want a done frame carrying failed-by-shard-loss", last)
	}
	checkExactlyOnce("kill follower", kmsgs)

	// --- Replace: hard-remove the corpse, then re-admit a fresh process
	// recovered from the dead member's journal. Its routes come back. ---
	shards[killee].mgr.Close() // the "process" dies for real now
	if shards[killee].store != nil {
		shards[killee].store.Close()
	}
	wantReclaim := 1 + len(finished[killee]) // its lost running job + its own finished history
	for _, gid := range finished[drainee] {
		if rendezvousOwner(gid, remaining) == killee {
			wantReclaim++ // drain handoffs it adopted and journaled
		}
	}
	if rendezvousOwner(endlessBy[drainee][0], remaining) == killee {
		wantReclaim++
	}
	ch = deleteMember(killee, false)
	if ch.Draining || ch.Epoch != 6 {
		t.Fatalf("hard removal = %+v, want immediate detach at epoch 6", ch)
	}
	repl := newShard(killee, shards[killee].dir)
	ch, _ = postMember(killee, repl.ts.URL)
	if ch.Epoch != 7 {
		t.Fatalf("replacement join = %+v, want epoch 7", ch)
	}
	if ch.Reclaimed != wantReclaim {
		t.Fatalf("replacement reclaimed %d route(s), want %d", ch.Reclaimed, wantReclaim)
	}
	for _, gid := range finished[killee] {
		if got := sseBody(gid, ""); got != fullBefore[gid] {
			t.Fatalf("reclaimed replay of %s is not byte-identical to the pre-crash stream", gid)
		}
		if got := sseBody(gid, "1"); got != resumeBefore[gid] {
			t.Fatalf("reclaimed Last-Event-ID resume of %s is not byte-identical to the pre-crash stream", gid)
		}
	}
	// The lost running job's synthesized terminal frame is replaced by
	// its real journaled history: everything its follower saw live, plus
	// the genuine terminal record from the recovered journal.
	rmsgs := replay(killRunning)
	replayCovers("reclaimed job", kmsgs[:len(kmsgs)-1], rmsgs) // the follower's last frame was synthesized
	if last := rmsgs[len(rmsgs)-1]; last.Type != "done" || strings.Contains(last.Error, "failed-by-shard-loss") {
		t.Fatalf("reclaimed terminal frame = %+v, want the journaled terminal state, not the synthesized loss", last)
	}

	// --- The ring routes on: fresh work lands at the final epoch. ---
	st, _, err := cl.SubmitKeyed(ctx, endless(250), "churn-final")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.ID, "g7-") {
		t.Fatalf("post-replacement gid %s is not at epoch 7", st.ID)
	}
	order = append(order, st.ID)

	for count(survFollow) <= preKill {
		select {
		case <-ctx.Done():
			t.Fatal("survivor stream stalled across the churn")
		case <-time.After(20 * time.Millisecond):
		}
	}
	survCancel()
	<-survFollow.done
	checkExactlyOnce("survivor follower", snapshotMsgs(survFollow))

	after, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(order) {
		t.Fatalf("listing holds %d jobs after churn, want %d", len(after), len(order))
	}
	for i := range after {
		if after[i].ID != order[i] {
			t.Fatalf("listing position %d is %s after churn, want %s; merged order must be stable", i, after[i].ID, order[i])
		}
	}

	stats := rt.Stats()
	if stats.Epoch != 7 || stats.MembersAdded != 2 || stats.MembersRemoved != 2 {
		t.Fatalf("stats = %+v, want epoch 7 with 2 members added and 2 removed", stats)
	}
	if int(stats.JobsHandedOff) != len(finished[drainee])+1 {
		t.Fatalf("JobsHandedOff = %d, want %d", stats.JobsHandedOff, len(finished[drainee])+1)
	}
	if int(stats.RoutesReclaimed) != wantReclaim {
		t.Fatalf("RoutesReclaimed = %d, want %d", stats.RoutesReclaimed, wantReclaim)
	}
	if stats.JobsLost != 1 || stats.ShardsDown != 1 || stats.EpochConflicts != 0 {
		t.Fatalf("stats = %+v, want 1 job lost, 1 shard down, 0 epoch conflicts", stats)
	}
}

// TestChaosRouterQuorumHealsPartitionAndCrash is the self-healing
// quorum acceptance proof: two replicated routers over three journaled
// HTTP shards, with the inter-router link cut by a partition. A
// membership mutation is applied to one router while its peer is
// unreachable, a member is crash-killed, and no admin ever touches the
// second router or the replacement — yet on heal both routers converge
// to the same epoch and member-set hash, the standby recovered from the
// dead member's journal owns its routes with byte-identical replays,
// exactly-once submission holds across the dual failovers, and neither
// router ever routes while knowingly diverged.
func TestChaosRouterQuorumHealsPartitionAndCrash(t *testing.T) {
	det := detector(t)
	ctx := ctxT(t)

	// pin outlives this test's wall clock: the stock endless() fixture
	// (Duration 800000) computes to completion in under twenty seconds,
	// and the survivor follower here must still be live at the end.
	pin := func(seed uint64) api.JobRequest {
		return api.JobRequest{Seed: seed, Duration: 8000000, Window: 10}
	}

	names := []string{"shard0", "shard1", "shard2"}
	sh := map[string]*healShard{}
	direct := map[string]*hpasclient.Client{}
	for i, name := range names {
		s := newHealShard(t, det, name, t.TempDir())
		sh[name] = s
		direct[name] = hpasclient.New(s.ts.URL, fastClientOptions(int64(500+i)))
	}
	memberSet := func(seedBase int64) []Member {
		var ms []Member
		for i, name := range names {
			ms = append(ms, sh[name].member(seedBase+int64(i)))
		}
		return ms
	}
	a := newHealRouter(t, Config{}, memberSet(0)...)
	b := newHealRouter(t, Config{}, memberSet(10)...)
	tsA := httptest.NewServer(a.Handler())
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	// Each router reaches its peer through a severable proxy — the
	// partition cuts both directions, as a real network split would.
	proxyA := newPartitionProxy(t, tsA.URL)
	proxyB := newPartitionProxy(t, tsB.URL)
	a.cfg.Peers = []string{proxyB.ts.URL}
	b.cfg.Peers = []string{proxyA.ts.URL}
	cl := hpasclient.New(tsA.URL, fastClientOptions(42))

	waitGet := func(gid string, cond func(api.JobStatus) bool) api.JobStatus {
		t.Helper()
		for {
			st, err := cl.Get(ctx, gid)
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
	sseBody := func(gid, lastEventID string) string {
		t.Helper()
		req, _ := http.NewRequestWithContext(ctx, "GET", tsA.URL+"/v1/jobs/"+gid+"/stream", nil)
		req.Header.Set("Accept", "text/event-stream")
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %s = %d, want 200", gid, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("stream %s: %v", gid, err)
		}
		return string(body)
	}
	checkExactlyOnce := func(label string, msgs []hpas.StreamMessage) {
		t.Helper()
		prev := -1
		for i, m := range msgs {
			if m.Seq <= prev {
				t.Fatalf("%s frame %d has seq %d after seq %d; delivery must be exactly-once", label, i, m.Seq, prev)
			}
			if m.Seq != prev+1 && m.Type != "gap" {
				t.Fatalf("%s frame %d (%s) jumped %d→%d without a gap frame; messages were lost silently", label, i, m.Type, prev, m.Seq)
			}
			prev = m.Seq
		}
	}
	agreement := func(label string, wantEpoch uint64) {
		t.Helper()
		ta, tb := a.Topology(), b.Topology()
		if ta.Epoch != wantEpoch || tb.Epoch != wantEpoch {
			t.Fatalf("%s: epochs %d / %d, want %d on both routers", label, ta.Epoch, tb.Epoch, wantEpoch)
		}
		if ta.MembersHash == "" || ta.MembersHash != tb.MembersHash {
			t.Fatalf("%s: member-set hashes %q / %q must agree", label, ta.MembersHash, tb.MembersHash)
		}
	}

	// --- Fixture (epoch 1): finished history and pinned workers on the
	// member that will be crash-killed, a live follower on a survivor. ---
	victim, bystander := "shard0", "shard1"
	finished := map[string][]string{}
	for i := 0; len(finished[victim]) == 0; i++ {
		if i > 24 {
			t.Fatalf("fixture: finished jobs never landed on %s: %v", victim, finished)
		}
		st, _, err := cl.SubmitKeyed(ctx, api.JobRequest{Seed: uint64(i + 1), Duration: 25, Window: 10}, fmt.Sprintf("quorum-fin-%02d", i))
		if err != nil {
			t.Fatalf("submit fin %d: %v", i, err)
		}
		finished[rendezvousOwner(st.ID, names)] = append(finished[rendezvousOwner(st.ID, names)], st.ID)
	}
	for _, gids := range finished {
		for _, gid := range gids {
			if st := waitGet(gid, api.JobStatus.Final); st.State != "done" {
				t.Fatalf("finished-fixture job %s ended %s (%s)", gid, st.State, st.Error)
			}
		}
	}
	fullBefore, resumeBefore := map[string]string{}, map[string]string{}
	for _, gid := range finished[victim] {
		fullBefore[gid] = sseBody(gid, "")
		resumeBefore[gid] = sseBody(gid, "1")
	}
	endlessBy := map[string][]string{}
	for i := 0; len(endlessBy[victim]) < 3 || len(endlessBy[bystander]) < 1; i++ {
		if i > 40 {
			t.Fatalf("fixture: endless jobs never pinned %s and %s: %v", victim, bystander, endlessBy)
		}
		st, _, err := cl.SubmitKeyed(ctx, pin(uint64(100+i)), fmt.Sprintf("quorum-run-%02d", i))
		if err != nil {
			t.Fatalf("submit run %d: %v", i, err)
		}
		endlessBy[rendezvousOwner(st.ID, names)] = append(endlessBy[rendezvousOwner(st.ID, names)], st.ID)
	}
	waitGet(endlessBy[victim][0], func(st api.JobStatus) bool { return st.State == "running" })
	waitGet(endlessBy[bystander][0], func(st api.JobStatus) bool { return st.State == "running" })

	type follow struct {
		mu   sync.Mutex
		msgs []hpas.StreamMessage
		err  error
		done chan struct{}
	}
	start := func(cctx context.Context, gid string) *follow {
		f := &follow{done: make(chan struct{})}
		go func() {
			defer close(f.done)
			f.err = cl.Stream(cctx, gid, 0, func(m hpas.StreamMessage) error {
				f.mu.Lock()
				f.msgs = append(f.msgs, m)
				f.mu.Unlock()
				return nil
			})
		}()
		return f
	}
	count := func(f *follow) int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.msgs)
	}
	snapshotMsgs := func(f *follow) []hpas.StreamMessage {
		f.mu.Lock()
		defer f.mu.Unlock()
		return append([]hpas.StreamMessage(nil), f.msgs...)
	}
	survCtx, survCancel := context.WithCancel(ctx)
	defer survCancel()
	survFollow := start(survCtx, endlessBy[bystander][0])
	killFollow := start(ctx, endlessBy[victim][0])
	for count(survFollow) < 3 || count(killFollow) < 3 {
		select {
		case <-ctx.Done():
			t.Fatal("followers never saw live traffic")
		case <-time.After(20 * time.Millisecond):
		}
	}

	// --- Partition, then mutate one router only: a fourth shard joins
	// through A while B is unreachable. ---
	proxyA.downed.Store(true)
	proxyB.downed.Store(true)
	s3 := newHealShard(t, det, "shard3", t.TempDir())
	direct["shard3"] = hpasclient.New(s3.ts.URL, fastClientOptions(503))
	joinBody := fmt.Sprintf(`{"name":"shard3","addr":%q}`, s3.ts.URL)
	jreq, _ := http.NewRequestWithContext(ctx, "POST", tsA.URL+"/v1/admin/members", strings.NewReader(joinBody))
	jreq.Header.Set("Content-Type", "application/json")
	jresp, err := http.DefaultClient.Do(jreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, jresp.Body)
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusCreated {
		t.Fatalf("partitioned join = %d, want 201", jresp.StatusCode)
	}
	names = append(names, "shard3")
	if a.Epoch() != 2 || b.Epoch() != 1 {
		t.Fatalf("epochs under partition = %d / %d, want 2 / 1", a.Epoch(), b.Epoch())
	}
	if st := a.Stats(); st.ForwardsPending != 1 {
		t.Fatalf("pending forwards under partition = %d, want 1", st.ForwardsPending)
	}
	// An unreachable peer is not divergence: both routers keep serving.
	a.CheckNow()
	b.CheckNow()
	for label, rt := range map[string]*Router{"A": a, "B": b} {
		if rr, code := rt.Ready(); code != http.StatusOK {
			t.Fatalf("router %s not ready under partition: %d %q", label, code, rr.Status)
		}
	}
	if rr, _ := b.Ready(); len(rr.Peers) != 1 || rr.Peers[0].Reachable {
		t.Fatalf("B's peer view under partition = %+v, want one unreachable peer", rr.Peers)
	}
	// A keeps routing at its new epoch while the partition holds.
	stPart, _, err := cl.SubmitKeyed(ctx, pin(200), "quorum-part")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stPart.ID, "g2-") {
		t.Fatalf("partition-era gid %s is not at epoch 2", stPart.ID)
	}

	// --- Heal: the journaled forward drains and the replicas agree,
	// with no operator action on either side. ---
	proxyA.downed.Store(false)
	proxyB.downed.Store(false)
	a.CheckNow()
	b.CheckNow()
	agreement("after partition heal", 2)
	if st := a.Stats(); st.ForwardsPending != 0 || st.MutationsForwarded != 1 {
		t.Fatalf("healed forwarder stats = %d pending / %d forwarded, want 0 / 1", st.ForwardsPending, st.MutationsForwarded)
	}
	hasShard3 := false
	for _, si := range b.Topology().Shards {
		if si.Name == "shard3" && si.Addr == s3.ts.URL {
			hasShard3 = true
		}
	}
	if !hasShard3 {
		t.Fatalf("B never converged on the partition-era join: %+v", b.Topology().Shards)
	}

	// --- Crash-kill the victim. Both routers demote it independently;
	// queued work is re-placed exactly once even with two routers
	// failing over the same jobs. ---
	victimRunning := endlessBy[victim][0]
	victimQueued := endlessBy[victim][1:]
	victimDir := sh[victim].dir
	sh[victim].kill()
	a.CheckNow()
	a.CheckNow()
	b.CheckNow()
	b.CheckNow()
	survivors := []string{}
	for _, name := range names {
		if name != victim {
			survivors = append(survivors, name)
		}
	}
	for _, gid := range victimQueued {
		st := waitGet(gid, func(st api.JobStatus) bool { return st.State != "failed" })
		if st.Final() {
			t.Fatalf("re-placed job %s ended %s (%s); queued work must survive the crash", gid, st.State, st.Error)
		}
		newOwner := rendezvousOwner(gid, survivors)
		rst, replayed, err := direct[newOwner].SubmitKeyed(ctx, endless(0), "hpasr-"+gid)
		if err != nil {
			t.Fatalf("probe submit for %s at %s: %v", gid, newOwner, err)
		}
		if !replayed {
			t.Fatalf("key hpasr-%s at %s started a new job %s; dual-router failover duplicated work", gid, newOwner, rst.ID)
		}
	}
	if st := waitGet(victimRunning, api.JobStatus.Final); st.State != "failed" || !strings.Contains(st.Error, "failed-by-shard-loss") {
		t.Fatalf("victim's running job ended %s (%q), want failed-by-shard-loss", st.State, st.Error)
	}
	select {
	case <-killFollow.done:
	case <-ctx.Done():
		t.Fatal("kill follower still blocked after failover")
	}
	if killFollow.err != nil {
		t.Fatalf("kill follower error: %v", killFollow.err)
	}
	kmsgs := snapshotMsgs(killFollow)
	if last := kmsgs[len(kmsgs)-1]; last.Type != "done" || !strings.Contains(last.Error, "failed-by-shard-loss") {
		t.Fatalf("kill follower's last frame = %+v, want a done frame carrying failed-by-shard-loss", last)
	}
	checkExactlyOnce("kill follower", kmsgs)

	// --- Operator-free replacement: a standby recovered over the dead
	// member's journal is configured on A only. A's prober promotes it
	// and the promotion replicates to B like any admin mutation — no
	// admin call touches either router. ---
	standby := newHealShard(t, det, "standby0", victimDir)
	a.cfg.Standbys = []string{standby.ts.URL}
	a.cfg.ReplaceAfter = time.Nanosecond
	a.CheckNow()
	// Hard removal (two epoch bumps) plus the replacement join: 2 → 5.
	agreement("after auto-replacement", 5)
	if st := a.Stats(); st.StandbysPromoted != 1 {
		t.Fatalf("A StandbysPromoted = %d, want 1", st.StandbysPromoted)
	}
	if st := b.Stats(); st.StandbysPromoted != 0 {
		t.Fatalf("B StandbysPromoted = %d, want 0 (the promotion replicated; B never promoted)", st.StandbysPromoted)
	}
	for label, rt := range map[string]*Router{"A": a, "B": b} {
		replaced := false
		for _, si := range rt.Topology().Shards {
			if si.Name == victim && si.Addr == standby.ts.URL {
				replaced = true
			}
		}
		if !replaced {
			t.Fatalf("router %s does not hold the promoted standby under the dead member's name: %+v", label, rt.Topology().Shards)
		}
	}
	if got, want := int(a.Stats().RoutesReclaimed), 1+len(finished[victim]); got != want {
		t.Fatalf("A reclaimed %d route(s) at promotion, want %d (lost running job + finished histories)", got, want)
	}
	// Journal-proved ownership: the victim's finished histories replay
	// byte-identically from the standby, Last-Event-ID resume included.
	for _, gid := range finished[victim] {
		if got := sseBody(gid, ""); got != fullBefore[gid] {
			t.Fatalf("reclaimed replay of %s is not byte-identical to the pre-crash stream", gid)
		}
		if got := sseBody(gid, "1"); got != resumeBefore[gid] {
			t.Fatalf("reclaimed Last-Event-ID resume of %s is not byte-identical to the pre-crash stream", gid)
		}
	}

	// --- Both replicas route on, at the same epoch, never having
	// suspended: convergence always landed in the round that detected
	// the difference. ---
	stFinal, _, err := cl.SubmitKeyed(ctx, pin(250), "quorum-final")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stFinal.ID, "g5-") {
		t.Fatalf("post-replacement gid %s is not at epoch 5", stFinal.ID)
	}
	a.CheckNow()
	b.CheckNow()
	agreement("at rest", 5)
	for label, rt := range map[string]*Router{"A": a, "B": b} {
		if msg := rt.divergedMsg(); msg != "" {
			t.Fatalf("router %s still suspended at rest: %s", label, msg)
		}
		if rr, code := rt.Ready(); code != http.StatusOK || len(rr.Peers) != 1 || !rr.Peers[0].Agree {
			t.Fatalf("router %s readiness at rest = %d %+v, want 200 with an agreeing peer", label, code, rr.Peers)
		}
	}
	preFinal := count(survFollow)
	for count(survFollow) <= preFinal {
		select {
		case <-survFollow.done:
			t.Fatalf("survivor follower exited early: err=%v, %d frame(s)", survFollow.err, count(survFollow))
		case <-ctx.Done():
			t.Fatal("survivor stream stalled across the quorum churn")
		case <-time.After(20 * time.Millisecond):
		}
	}
	survCancel()
	<-survFollow.done
	checkExactlyOnce("survivor follower", snapshotMsgs(survFollow))
}
