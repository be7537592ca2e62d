package shard

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpas"
	"hpas/api"
	"hpas/serve"
)

// healShard is one journaled hpas-serve instance reachable over HTTP —
// the member shape the self-healing paths need (peers can only adopt or
// replace members that advertise an addr).
type healShard struct {
	name  string
	dir   string
	mgr   *hpas.StreamManager
	store hpas.StreamStore
	ts    *httptest.Server
}

func newHealShard(t *testing.T, det *hpas.Detector, name, dir string) *healShard {
	t.Helper()
	store, recovered := serve.OpenJournal(dir, t.Logf)
	mgr := hpas.NewStreamManager(hpas.StreamConfig{Workers: 1, Queue: 32, Store: store})
	if err := mgr.Reopen(recovered); err != nil {
		t.Fatalf("reopening %s: %v", dir, err)
	}
	ts := httptest.NewServer(serve.New(mgr, det, serve.Config{}).Handler())
	sh := &healShard{name: name, dir: dir, mgr: mgr, store: store, ts: ts}
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
		if store != nil {
			store.Close()
		}
	})
	return sh
}

// kill simulates a crash: the address dies and the process exits, but
// the journal directory stays for a successor to recover.
func (sh *healShard) kill() {
	sh.ts.CloseClientConnections()
	sh.ts.Close()
	sh.mgr.Close()
	if sh.store != nil {
		sh.store.Close()
	}
}

func (sh *healShard) member(seed int64) Member {
	return Member{Name: sh.name, Addr: sh.ts.URL, Backend: NewRemote(sh.ts.URL, RemoteOptions{
		Client:       fastClientOptions(seed),
		ProbeTimeout: time.Second,
	})}
}

// newHealRouter builds a manually driven router (hour ticker; the test
// owns every probe round through CheckNow).
func newHealRouter(t *testing.T, cfg Config, members ...Member) *Router {
	t.Helper()
	if cfg.CheckInterval == 0 {
		cfg.CheckInterval = time.Hour
	}
	if cfg.FailAfter == 0 {
		cfg.FailAfter = 2
	}
	cfg.Logf = t.Logf
	rt, err := NewRouter(members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cerr := rt.Close(); cerr != nil {
			t.Errorf("router close: %v", cerr)
		}
	})
	return rt
}

// partitionProxy fronts a peer router with a toggleable network
// partition: while partitioned, connections are severed without a
// response — the transport failure a real partition produces.
type partitionProxy struct {
	ts     *httptest.Server
	downed atomic.Bool
}

func newPartitionProxy(t *testing.T, target string) *partitionProxy {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.ErrorLog = nil
	p := &partitionProxy{}
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p.downed.Load() {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, herr := hj.Hijack(); herr == nil {
					conn.Close()
					return
				}
			}
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(p.ts.Close)
	return p
}

// An admin mutation applied to one replica reaches its peer through the
// forwarding ledger synchronously — the operator applies it once and
// both routers converge to the same epoch and member-set hash, in both
// directions.
func TestMutationForwardingReplicatesToPeer(t *testing.T) {
	det := detector(t)
	ctx := ctxT(t)
	s0 := newHealShard(t, det, "shard0", t.TempDir())
	s1 := newHealShard(t, det, "shard1", t.TempDir())
	a := newHealRouter(t, Config{}, s0.member(0), s1.member(1))
	b := newHealRouter(t, Config{}, s0.member(2), s1.member(3))
	tsA := httptest.NewServer(a.Handler())
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	a.cfg.Peers = []string{tsB.URL}
	b.cfg.Peers = []string{tsA.URL}

	// Join applied to A only.
	s2 := newHealShard(t, det, "shard2", t.TempDir())
	ch, err := a.AddMember(ctx, Member{Name: "shard2", Addr: s2.ts.URL, Backend: NewRemote(s2.ts.URL, RemoteOptions{})}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Epoch != 2 {
		t.Fatalf("join epoch = %d, want 2", ch.Epoch)
	}
	if got := b.Epoch(); got != 2 {
		t.Fatalf("peer epoch after forwarded join = %d, want 2", got)
	}
	ta, tb := a.Topology(), b.Topology()
	if ta.MembersHash == "" || ta.MembersHash != tb.MembersHash {
		t.Fatalf("member-set hashes after forwarded join: %q vs %q", ta.MembersHash, tb.MembersHash)
	}
	found := false
	for _, si := range tb.Shards {
		if si.Name == "shard2" && si.Addr == s2.ts.URL {
			found = true
		}
	}
	if !found {
		t.Fatalf("peer member list lacks the forwarded join: %+v", tb.Shards)
	}
	if st := a.Stats(); st.MutationsForwarded != 1 || st.ForwardsPending != 0 {
		t.Fatalf("forwarder stats = %d forwarded / %d pending, want 1 / 0", st.MutationsForwarded, st.ForwardsPending)
	}

	// Neither replica diverges, and the gid streams agree.
	a.CheckNow()
	b.CheckNow()
	if msg := a.divergedMsg() + b.divergedMsg(); msg != "" {
		t.Fatalf("replicas diverged after a forwarded join: %s", msg)
	}
	sa, _, err := a.Submit(ctx, api.JobRequest{Seed: 5, Duration: 20, Window: 10}, "")
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := b.Submit(ctx, api.JobRequest{Seed: 5, Duration: 20, Window: 10}, "")
	if err != nil {
		t.Fatal(err)
	}
	if sa.ID != sb.ID || !strings.HasPrefix(sa.ID, "g2-") {
		t.Fatalf("post-join gids %s / %s, want identical g2- ids", sa.ID, sb.ID)
	}

	// The reverse direction: a hard removal applied to B replicates to A.
	ch, err = b.RemoveMember(ctx, "shard2", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Epoch != 4 {
		t.Fatalf("hard-removal epoch = %d, want 4 (drain mark + detach)", ch.Epoch)
	}
	if got := a.Epoch(); got != 4 {
		t.Fatalf("peer epoch after forwarded removal = %d, want 4", got)
	}
	if ta, tb = a.Topology(), b.Topology(); ta.MembersHash != tb.MembersHash {
		t.Fatalf("member-set hashes after forwarded removal: %q vs %q", ta.MembersHash, tb.MembersHash)
	}
	if st := b.Stats(); st.MutationsForwarded != 1 || st.ForwardsPending != 0 {
		t.Fatalf("reverse forwarder stats = %d forwarded / %d pending, want 1 / 0", st.MutationsForwarded, st.ForwardsPending)
	}
}

// A mutation applied while the peer is unreachable stays in the ledger
// and converges when the partition heals — retried by the probe loop,
// not by an operator.
func TestMutationForwardingConvergesAfterPartition(t *testing.T) {
	det := detector(t)
	ctx := ctxT(t)
	s0 := newHealShard(t, det, "shard0", t.TempDir())
	s1 := newHealShard(t, det, "shard1", t.TempDir())
	a := newHealRouter(t, Config{}, s0.member(0), s1.member(1))
	b := newHealRouter(t, Config{}, s0.member(2), s1.member(3))
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(tsB.Close)
	proxy := newPartitionProxy(t, tsB.URL)
	a.cfg.Peers = []string{proxy.ts.URL}

	proxy.downed.Store(true)
	s2 := newHealShard(t, det, "shard2", t.TempDir())
	if _, err := a.AddMember(ctx, Member{Name: "shard2", Addr: s2.ts.URL, Backend: NewRemote(s2.ts.URL, RemoteOptions{})}, 0); err != nil {
		t.Fatal(err)
	}
	if a.Epoch() != 2 || b.Epoch() != 1 {
		t.Fatalf("epochs under partition = %d / %d, want 2 / 1", a.Epoch(), b.Epoch())
	}
	if st := a.Stats(); st.ForwardsPending != 1 || st.MutationsForwarded != 0 {
		t.Fatalf("partitioned forwarder stats = %d pending / %d forwarded, want 1 / 0", st.ForwardsPending, st.MutationsForwarded)
	}
	// Retries keep the record pending, not dropped.
	a.CheckNow()
	if st := a.Stats(); st.ForwardsPending != 1 {
		t.Fatalf("pending forwards after a partitioned retry = %d, want 1", st.ForwardsPending)
	}

	proxy.downed.Store(false)
	a.CheckNow()
	if st := a.Stats(); st.ForwardsPending != 0 || st.MutationsForwarded != 1 {
		t.Fatalf("healed forwarder stats = %d pending / %d forwarded, want 0 / 1", st.ForwardsPending, st.MutationsForwarded)
	}
	if b.Epoch() != 2 {
		t.Fatalf("peer epoch after heal = %d, want 2", b.Epoch())
	}
	if ta, tb := a.Topology(), b.Topology(); ta.MembersHash != tb.MembersHash {
		t.Fatalf("member-set hashes after heal: %q vs %q", ta.MembersHash, tb.MembersHash)
	}
}

// The replication ledger survives a restart: un-acked forwards resume
// pending, fully-acked records stay retired, and sequence numbers keep
// advancing past everything journaled.
func TestReplicatorLedgerSurvivesReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repl.ndjson")
	r, err := newReplicator(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.record(replRecord{Kind: "join", Name: "s2", Addr: "http://s2", FromEpoch: 1, ToEpoch: 2}, []string{"p1", "p2"}); err != nil {
		t.Fatal(err)
	}
	if err := r.record(replRecord{Kind: "remove", Name: "s0", PrevAddr: "http://s0", FromEpoch: 2, ToEpoch: 4}, []string{"p1"}); err != nil {
		t.Fatal(err)
	}
	if did, err := r.ack(1, "p1"); err != nil || !did {
		t.Fatalf("ack(1, p1) = %v, %v", did, err)
	}
	if did, _ := r.ack(1, "p1"); did {
		t.Fatal("repeated ack retired the same pair twice")
	}
	if err := r.close(); err != nil {
		t.Fatal(err)
	}

	r2, err := newReplicator(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.pendingCount(); got != 2 {
		t.Fatalf("pending after reload = %d, want 2 (seq1→p2, seq2→p1)", got)
	}
	if p1 := r2.pendingFor("p1"); len(p1) != 1 || p1[0].Seq != 2 || p1[0].Kind != "remove" {
		t.Fatalf("pendingFor(p1) after reload = %+v, want the seq-2 removal", p1)
	}
	if p2 := r2.pendingFor("p2"); len(p2) != 1 || p2[0].Seq != 1 || p2[0].Addr != "http://s2" {
		t.Fatalf("pendingFor(p2) after reload = %+v, want the seq-1 join", p2)
	}
	if err := r2.record(replRecord{Kind: "drain", Name: "s1", PrevAddr: "http://s1", FromEpoch: 4, ToEpoch: 5}, []string{"p2"}); err != nil {
		t.Fatal(err)
	}
	if p2 := r2.pendingFor("p2"); len(p2) != 2 || p2[1].Seq != 3 {
		t.Fatalf("post-reload sequence numbering = %+v, want the new record at seq 3", p2)
	}
	for _, pair := range []struct {
		seq  uint64
		peer string
	}{{1, "p2"}, {2, "p1"}, {3, "p2"}} {
		if did, err := r2.ack(pair.seq, pair.peer); err != nil || !did {
			t.Fatalf("ack(%d, %s) = %v, %v", pair.seq, pair.peer, did, err)
		}
	}
	if err := r2.close(); err != nil {
		t.Fatal(err)
	}
	r3, err := newReplicator(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r3.pendingCount(); got != 0 {
		t.Fatalf("pending after full ack + reload = %d, want 0", got)
	}
	if err := r3.close(); err != nil {
		t.Fatal(err)
	}
}

// A ledger whose last line lacks its newline, as a crash mid-append
// leaves it, loses nothing recorded after the restart: a torn tail is
// dropped and a complete one is kept, and either way the next line
// lands on a line of its own.
func TestReplicatorLedgerRecordsAfterUnterminatedTail(t *testing.T) {
	for _, tc := range []struct {
		name        string
		tail        string
		pendingOpen int // pending at the first open
	}{
		{"torn", `{"op":"mut","rec":{"seq":1,"kind":"join","na`, 0},
		{"complete", `{"op":"mut","rec":{"seq":1,"kind":"join","name":"s2","addr":"http://s2","from_epoch":1,"to_epoch":2},"peers":["p1"]}`, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "repl.ndjson")
			if err := os.WriteFile(path, []byte(tc.tail), 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := newReplicator(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.pendingCount(); got != tc.pendingOpen {
				t.Fatalf("pending at open = %d, want %d", got, tc.pendingOpen)
			}
			if err := r.record(replRecord{Kind: "drain", Name: "s1", FromEpoch: 2, ToEpoch: 3}, []string{"p1"}); err != nil {
				t.Fatal(err)
			}
			if err := r.close(); err != nil {
				t.Fatal(err)
			}
			r2, err := newReplicator(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.close()
			if got, want := r2.pendingCount(), tc.pendingOpen+1; got != want {
				t.Fatalf("pending after record + reopen = %d, want %d", got, want)
			}
		})
	}
}

// A router that finds its peer ahead adopts the peer's member set in
// the same probe round — epoch, hash, and the members it was missing —
// and resumes routing without ever suspending.
func TestEpochCatchUpAdoptsPeerSet(t *testing.T) {
	det := detector(t)
	ctx := ctxT(t)
	s0 := newHealShard(t, det, "shard0", t.TempDir())
	s1 := newHealShard(t, det, "shard1", t.TempDir())
	a := newHealRouter(t, Config{}, s0.member(0), s1.member(1))
	b := newHealRouter(t, Config{}, s0.member(2), s1.member(3))
	tsA := httptest.NewServer(a.Handler())
	t.Cleanup(tsA.Close)
	b.cfg.Peers = []string{tsA.URL}

	// A moves ahead on its own (no peers configured on A, so nothing is
	// forwarded — B must pull).
	s2 := newHealShard(t, det, "shard2", t.TempDir())
	if _, err := a.AddMember(ctx, Member{Name: "shard2", Addr: s2.ts.URL, Backend: NewRemote(s2.ts.URL, RemoteOptions{})}, 0); err != nil {
		t.Fatal(err)
	}

	b.CheckNow()
	if msg := b.divergedMsg(); msg != "" {
		t.Fatalf("catch-up left B suspended: %s", msg)
	}
	if got := b.Epoch(); got != 2 {
		t.Fatalf("B epoch after catch-up = %d, want 2", got)
	}
	ta, tb := a.Topology(), b.Topology()
	if ta.MembersHash != tb.MembersHash {
		t.Fatalf("member-set hashes after catch-up: %q vs %q", ta.MembersHash, tb.MembersHash)
	}
	found := false
	for _, si := range tb.Shards {
		if si.Name == "shard2" && si.Addr == s2.ts.URL {
			found = true
		}
	}
	if !found {
		t.Fatalf("B did not adopt the member it was missing: %+v", tb.Shards)
	}
	st := b.Stats()
	if st.EpochCatchUps != 1 {
		t.Fatalf("EpochCatchUps = %d, want 1", st.EpochCatchUps)
	}
	if st.EpochConflicts != 0 {
		t.Fatalf("EpochConflicts = %d, want 0 (same-round catch-up never suspends)", st.EpochConflicts)
	}
	if rr, code := b.Ready(); code != http.StatusOK {
		t.Fatalf("B readiness after catch-up = %d %q, want 200", code, rr.Status)
	}
	// The adopted set routes identically to the peer's.
	sa, _, err := a.Submit(ctx, api.JobRequest{Seed: 7, Duration: 20, Window: 10}, "")
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := b.Submit(ctx, api.JobRequest{Seed: 7, Duration: 20, Window: 10}, "")
	if err != nil {
		t.Fatal(err)
	}
	if sa.ID != sb.ID || !strings.HasPrefix(sb.ID, "g2-") {
		t.Fatalf("post-catch-up gids %s / %s, want identical g2- ids", sa.ID, sb.ID)
	}
}

// A same-epoch split — each replica admitted a different member — has no
// "ahead" replica; the tie-break (smaller member-set hash wins) decides
// deterministically, the loser adopts, and both converge to the same
// set with neither ever routing on a divergent one.
func TestSameEpochTieBreakConvergesDeterministically(t *testing.T) {
	det := detector(t)
	ctx := ctxT(t)
	s0 := newHealShard(t, det, "shard0", t.TempDir())
	s1 := newHealShard(t, det, "shard1", t.TempDir())
	a := newHealRouter(t, Config{}, s0.member(0), s1.member(1))
	b := newHealRouter(t, Config{}, s0.member(2), s1.member(3))
	tsA := httptest.NewServer(a.Handler())
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)

	// The split happens while the replicas cannot see each other (peers
	// not wired yet): A admits shardx, B admits shardy.
	sx := newHealShard(t, det, "shardx", t.TempDir())
	sy := newHealShard(t, det, "shardy", t.TempDir())
	if _, err := a.AddMember(ctx, Member{Name: "shardx", Addr: sx.ts.URL, Backend: NewRemote(sx.ts.URL, RemoteOptions{})}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddMember(ctx, Member{Name: "shardy", Addr: sy.ts.URL, Backend: NewRemote(sy.ts.URL, RemoteOptions{})}, 0); err != nil {
		t.Fatal(err)
	}
	if a.Epoch() != 2 || b.Epoch() != 2 {
		t.Fatalf("split epochs = %d / %d, want 2 / 2", a.Epoch(), b.Epoch())
	}
	winner := "shardx"
	if membersHash([]string{"shard0", "shard1", "shardy"}) < membersHash([]string{"shard0", "shard1", "shardx"}) {
		winner = "shardy"
	}

	a.cfg.Peers = []string{tsB.URL}
	b.cfg.Peers = []string{tsA.URL}
	agreed := func() bool {
		return a.divergedMsg() == "" && b.divergedMsg() == "" &&
			a.Topology().MembersHash == b.Topology().MembersHash
	}
	for i := 0; i < 4 && !agreed(); i++ {
		a.CheckNow()
		b.CheckNow()
	}
	if !agreed() {
		t.Fatalf("tie-break never converged: A %q / %q, B %q / %q",
			a.Topology().MembersHash, a.divergedMsg(), b.Topology().MembersHash, b.divergedMsg())
	}
	if a.Epoch() != 2 || b.Epoch() != 2 {
		t.Fatalf("converged epochs = %d / %d, want 2 / 2 (adoption, not a bump)", a.Epoch(), b.Epoch())
	}
	for _, rt := range []*Router{a, b} {
		names := map[string]bool{}
		for _, si := range rt.Topology().Shards {
			names[si.Name] = true
		}
		if !names[winner] || len(names) != 3 {
			t.Fatalf("converged member set %v, want shard0/shard1/%s (smaller hash wins)", names, winner)
		}
	}
	if got := a.Stats().EpochCatchUps + b.Stats().EpochCatchUps; got != 1 {
		t.Fatalf("EpochCatchUps across replicas = %d, want exactly 1 (one loser adopts)", got)
	}
	// Both replicas route again, on identical gid streams.
	sa, _, err := a.Submit(ctx, api.JobRequest{Seed: 11, Duration: 20, Window: 10}, "")
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := b.Submit(ctx, api.JobRequest{Seed: 11, Duration: 20, Window: 10}, "")
	if err != nil {
		t.Fatal(err)
	}
	if sa.ID != sb.ID {
		t.Fatalf("post-tie-break gids %s / %s, want identical", sa.ID, sb.ID)
	}
}

// The operator-free replacement: a member down past the grace is
// hard-removed and a standby promoted under its name, and the standby —
// recovered from the dead member's journal — serves its routes'
// histories byte-identically.
func TestAutoReplacePromotesStandby(t *testing.T) {
	det := detector(t)
	ctx := ctxT(t)
	victimDir := t.TempDir()
	s0 := newHealShard(t, det, "shard0", victimDir)
	s1 := newHealShard(t, det, "shard1", t.TempDir())
	rt := newHealRouter(t, Config{}, s0.member(0), s1.member(1))
	names := []string{"shard0", "shard1"}

	// A finished fixture job owned by the victim, with its replay
	// captured while the victim is healthy.
	var fixture string
	for i := 0; fixture == ""; i++ {
		if i > 24 {
			t.Fatal("fixture never landed on shard0")
		}
		st, _, err := rt.Submit(ctx, api.JobRequest{Seed: uint64(i + 1), Duration: 25, Window: 10}, "")
		if err != nil {
			t.Fatal(err)
		}
		if rendezvousOwner(st.ID, names) == "shard0" {
			fixture = st.ID
		}
	}
	for {
		st, err := rt.Get(ctx, fixture)
		if err != nil {
			t.Fatal(err)
		}
		if st.Final() {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	replayBefore := streamAll(t, rt, ctx, fixture)

	// Crash the victim; the probe rounds demote it. Replacement is still
	// disabled, so nothing else happens yet.
	s0.kill()
	rt.CheckNow()
	rt.CheckNow()
	for _, si := range rt.snapshotShards() {
		if si.Name == "shard0" && si.Alive {
			t.Fatal("victim still alive after two failed probe rounds")
		}
	}
	if st := rt.Stats(); st.StandbysPromoted != 0 {
		t.Fatalf("StandbysPromoted = %d before a standby exists, want 0", st.StandbysPromoted)
	}

	// The standby recovers over the dead member's journal directory.
	// The first configured URL is unreachable — pickStandby must skip it.
	standby := newHealShard(t, det, "standby0", victimDir)
	rt.cfg.Standbys = []string{"http://127.0.0.1:1", standby.ts.URL}
	rt.cfg.ReplaceAfter = time.Nanosecond
	rt.CheckNow()

	ml := rt.Members()
	if len(ml.Members) != 2 {
		t.Fatalf("members after promotion = %+v, want 2", ml.Members)
	}
	promoted := false
	for _, si := range ml.Members {
		if si.Name == "shard0" {
			if si.Addr != standby.ts.URL || !si.Alive {
				t.Fatalf("replacement member = %+v, want the standby addr, alive", si)
			}
			promoted = true
		}
	}
	if !promoted {
		t.Fatalf("dead member's name vanished instead of being replaced: %+v", ml.Members)
	}
	// Epoch trail: 1 → 3 (hard removal: drain mark + detach) → 4 (join).
	if ml.Epoch != 4 {
		t.Fatalf("epoch after promotion = %d, want 4", ml.Epoch)
	}
	st := rt.Stats()
	if st.StandbysPromoted != 1 || st.MembersRemoved != 1 || st.MembersAdded != 1 {
		t.Fatalf("stats = %d promoted / %d removed / %d added, want 1 / 1 / 1",
			st.StandbysPromoted, st.MembersRemoved, st.MembersAdded)
	}
	if st.RoutesReclaimed < 1 {
		t.Fatalf("RoutesReclaimed = %d, want ≥ 1 (the fixture's journaled history)", st.RoutesReclaimed)
	}
	// Journal-proved ownership: the fixture replays byte-identically from
	// the standby.
	replayAfter := streamAll(t, rt, ctx, fixture)
	if mustJSONString(t, replayBefore) != mustJSONString(t, replayAfter) {
		t.Fatalf("fixture %s replays differently from the promoted standby", fixture)
	}
	// One promotion, not a loop: another round changes nothing.
	rt.CheckNow()
	if got := rt.Stats().StandbysPromoted; got != 1 {
		t.Fatalf("StandbysPromoted after an extra round = %d, want 1", got)
	}
	// And fresh work routes onto the replacement set.
	if _, _, err := rt.Submit(ctx, api.JobRequest{Seed: 99, Duration: 20, Window: 10}, ""); err != nil {
		t.Fatalf("submit after promotion: %v", err)
	}
}

// -local mode has no standby pool; the Respawn hook replaces a dead
// in-process member instead.
func TestAutoReplaceRespawnsLocalMember(t *testing.T) {
	det := detector(t)
	ctx := ctxT(t)
	var respawns atomic.Int64
	mgr0 := hpas.NewStreamManager(hpas.StreamConfig{Workers: 1, Queue: 32})
	mgr1 := hpas.NewStreamManager(hpas.StreamConfig{Workers: 1, Queue: 32})
	chaos := newChaosBackend(NewLocal(mgr0, serve.New(mgr0, det, serve.Config{})))
	rt := newHealRouter(t, Config{
		Respawn: func(name string) (Backend, error) {
			respawns.Add(1)
			mgr := hpas.NewStreamManager(hpas.StreamConfig{Workers: 1, Queue: 32})
			return NewLocal(mgr, serve.New(mgr, det, serve.Config{})), nil
		},
	},
		Member{Name: "shard0", Backend: chaos},
		Member{Name: "shard1", Backend: NewLocal(mgr1, serve.New(mgr1, det, serve.Config{}))},
	)

	chaos.setFail(true)
	rt.CheckNow()
	rt.CheckNow()
	for _, si := range rt.snapshotShards() {
		if si.Name == "shard0" && si.Alive {
			t.Fatal("victim still alive after two failed probe rounds")
		}
	}
	rt.cfg.ReplaceAfter = time.Nanosecond
	rt.CheckNow()
	if got := respawns.Load(); got != 1 {
		t.Fatalf("respawn hook ran %d times, want 1", got)
	}
	if got := rt.Stats().StandbysPromoted; got != 1 {
		t.Fatalf("StandbysPromoted = %d, want 1", got)
	}
	alive := false
	for _, si := range rt.snapshotShards() {
		if si.Name == "shard0" && si.Alive {
			alive = true
		}
	}
	if !alive {
		t.Fatalf("respawned member not alive: %+v", rt.snapshotShards())
	}
	if _, _, err := rt.Submit(ctx, api.JobRequest{Seed: 3, Duration: 20, Window: 10}, ""); err != nil {
		t.Fatalf("submit after respawn: %v", err)
	}
}

// The ordering regression behind the markDown doc note at place(): a
// submission already past owner selection when its target is demoted
// must not land work on the downed member — the gated Submit fails like
// the dead member it reached, and place retries onto the survivor.
func TestPlaceRacingDemotionDoesNotRouteToDownedMember(t *testing.T) {
	det := detector(t)
	ctx := ctxT(t)
	c := &localCluster{
		locals: make(map[string]*Local, 2),
		mgrs:   make(map[string]*hpas.StreamManager, 2),
	}
	wraps := map[string]*chaosBackend{}
	var members []Member
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("shard%d", i)
		mgr := hpas.NewStreamManager(hpas.StreamConfig{Workers: 2, Queue: 32})
		l := NewLocal(mgr, serve.New(mgr, det, serve.Config{}))
		w := newChaosBackend(l)
		members = append(members, Member{Name: name, Backend: w})
		c.names = append(c.names, name)
		c.locals[name] = l
		c.mgrs[name] = mgr
		wraps[name] = w
	}
	rt, err := NewRouter(members, Config{CheckInterval: time.Hour, FailAfter: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	c.rt = rt
	t.Cleanup(func() {
		if cerr := rt.Close(); cerr != nil {
			t.Errorf("router close: %v", cerr)
		}
	})

	// Burn gids until the next one will be placed on the victim, so the
	// gated submission is the racing one.
	victim, survivor := "shard0", "shard1"
	nextOwner := func() string {
		rt.mem.mu.Lock()
		g := gidFor(rt.mem.epoch, rt.mem.setHash, rt.mem.counter+1)
		rt.mem.mu.Unlock()
		return rendezvousOwner(g, c.names)
	}
	for i := 0; nextOwner() != victim; i++ {
		if i > 24 {
			t.Fatal("gid stream never reached a victim-owned id")
		}
		if _, _, err := rt.Submit(ctx, api.JobRequest{Seed: uint64(i + 1), Duration: 20, Window: 10}, ""); err != nil {
			t.Fatal(err)
		}
	}

	// The racing submission enters the victim's Submit and blocks at the
	// gate — past owner selection, not yet accepted.
	wraps[victim].arm()
	type result struct {
		st  api.JobStatus
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, _, err := rt.Submit(ctx, endless(77), "race-key")
		done <- result{st, err}
	}()
	select {
	case <-wraps[victim].entered:
	case <-time.After(60 * time.Second):
		t.Fatal("racing submission never reached the victim's submit")
	}

	// The demotion lands mid-flight.
	wraps[victim].setFail(true)
	rt.CheckNow()
	rt.CheckNow()
	for _, si := range rt.snapshotShards() {
		if si.Name == victim && si.Alive {
			t.Fatal("victim not demoted")
		}
	}

	// Released, the gated submit fails like the dead member it reached;
	// place must re-route to the survivor, never re-pick the downed one.
	close(wraps[victim].release)
	var res result
	select {
	case res = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("racing submission never resolved")
	}
	if res.err != nil {
		t.Fatalf("racing submission failed: %v", res.err)
	}
	if _, replayed, err := c.locals[survivor].Submit(ctx, endless(0), "hpasr-"+res.st.ID); err != nil || !replayed {
		t.Fatalf("key hpasr-%s on survivor: replayed=%v err=%v; the race routed away from the survivor", res.st.ID, replayed, err)
	}
	for _, j := range c.mgrs[victim].Jobs() {
		if j.Snapshot().Spec.IdempotencyKey == "hpasr-"+res.st.ID {
			t.Fatalf("downed member holds the raced job %s", res.st.ID)
		}
	}
	if st := rt.Stats(); st.ShardsDown != 1 {
		t.Fatalf("ShardsDown = %d, want 1", st.ShardsDown)
	}
	if _, err := rt.Cancel(ctx, res.st.ID); err != nil {
		t.Fatal(err)
	}
}
