package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpas"
	"hpas/api"
)

// Config tunes a Router. The zero value is usable.
type Config struct {
	// CheckInterval is the health-probe period (default 1s).
	CheckInterval time.Duration
	// FailAfter is the number of consecutive failed probes before a
	// member is taken out of the ring (default 2). Submission-path
	// transport failures skip the threshold: by the time the retrying
	// client gives up on a shard, the evidence is already in.
	FailAfter int
	// Logf receives failover and topology-change lines; nil discards.
	Logf func(format string, args ...any)

	// InitialEpoch seeds the membership epoch (default 1). Replicated
	// routers sharing one member list must start at the same epoch for
	// their gid streams to agree.
	InitialEpoch uint64
	// Peers lists the base URLs of replicated routers sharing this
	// member list. Each probe round cross-checks their /v1/topology
	// epochs; a conflict suspends routing (503 + Retry-After) instead
	// of split-braining. Empty disables the divergence probe.
	Peers []string
	// DrainGrace bounds how long a draining member may hold running
	// jobs before removal is forced (running jobs finalized as
	// failed-by-shard-loss). Zero waits indefinitely.
	DrainGrace time.Duration

	// ReplicationLog, when non-empty, journals replication records to an
	// append-only NDJSON file so forwards still pending at a crash are
	// retried — idempotently, under the CAS epoch guards — after a
	// restart. Empty keeps the replication ledger in memory only.
	ReplicationLog string
	// ReplaceAfter enables operator-free shard replacement: a member
	// down past this grace is hard-removed and a standby promoted under
	// its name (see Standbys / Respawn). Zero disables auto-replacement.
	ReplaceAfter time.Duration
	// Standbys lists base URLs of idle shard processes eligible for
	// promotion. Replicated routers configured with the same pool pick
	// the same standby (first reachable URL not already a member addr),
	// so concurrent promotions converge instead of crossing.
	Standbys []string
	// Respawn, when set, builds an in-process replacement backend for a
	// dead member (used by hpas-router -local to re-open the member's
	// journal under -data-dir). Consulted only when no standby from the
	// pool is eligible.
	Respawn func(name string) (Backend, error)
}

// Member names one shard of the topology: the boot-time list passed to
// NewRouter, and the runtime joins accepted by AddMember.
type Member struct {
	Name    string
	Addr    string // base URL for remote shards; "" for in-process
	Backend Backend
}

// member is the router's live view of one Member.
type member struct {
	name string
	addr string
	be   Backend

	mu    sync.Mutex
	alive bool
	// leaving marks administered drain intent: the member still serves
	// its existing jobs but takes no new placements, and is removed
	// once its running jobs finish (or DrainGrace expires). Intent
	// survives probe demote/rejoin cycles — only an admin removes it.
	leaving   bool
	drainedAt time.Time
	fails     int
	lastErr   string
	health    api.ShardHealth
	// downSince stamps the demotion transition; auto-replacement
	// promotes a standby once it is older than Config.ReplaceAfter.
	// Cleared on rejoin.
	downSince time.Time
	// replaceNoted suppresses repeated "no replacement yet" log lines
	// for one continuous outage.
	replaceNoted bool
	// down is closed when the member leaves the ring and replaced with
	// a fresh channel when it rejoins; stream proxies select on the
	// snapshot they captured, so a follow pinned to a dying shard is
	// cut the moment the router gives up on it.
	down chan struct{}
}

func (m *member) isAlive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alive
}

func (m *member) downChan() chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down
}

// zombieRef names a possibly-live duplicate copy of a route's job: the
// member that held the job when failover re-placed it elsewhere, and
// the job's ID there. If that member rejoins, the copy is cancelled —
// the re-placed job is the authoritative one.
type zombieRef struct {
	m       *member
	localID string
}

// route is one routed job: the router-assigned global ID, the
// submission it carries (kept for re-placement until the job is final),
// and the last observed shard-local status. All mutable fields are
// guarded by Router.mu.
type route struct {
	gid       string
	key       string // router-owned shard-level idempotency key, stable across re-placements
	clientKey string // client's Idempotency-Key, "" if none
	// req and raw are the submission, decoded and in wire form: raw is
	// reused verbatim across placement retries and failover
	// re-placements so the hop never re-marshals, and is never pooled
	// memory. Only a queued route is ever re-placed, so setLast drops
	// both once the status is final.
	req api.JobRequest
	raw []byte

	placed   chan struct{} // closed once placement resolves either way
	placeErr error         // placement failure, set before placed closes

	shard   *member
	localID string        // job ID on the owning shard
	last    api.JobStatus // last observed status (authoritative once lost)
	lost    bool          // finalized failed-by-shard-loss
	zombies []zombieRef   // stale copies left behind by failover re-placement
	reaped  bool          // a lost job's live copy was already cancelled on rejoin
}

// Router places jobs on shards by rendezvous hash, proxies the /v1 job
// surface to the owning shard, and reconciles jobs off members that
// stop answering health probes. Construct with NewRouter, release with
// Close.
type Router struct {
	cfg Config
	mem *membership

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// peerProbe performs divergence probes against peer routers: plain,
	// non-retrying, short timeout — one missed probe is no verdict.
	peerProbe *http.Client

	mu     sync.Mutex
	routes map[string]*route
	order  []string // gids in assignment order: the deterministic listing order
	byKey  map[string]*route
	// diverged, when non-empty, names the epoch conflict that suspended
	// routing: Submit refuses with ErrEpochDiverged until a probe round
	// finds the peers back in agreement (or catch-up adopts a peer's
	// member set).
	diverged string
	// peerView is the divergence probe's last per-peer observation,
	// served by Ready so an epoch-diverged refusal names the peer that
	// disagrees.
	peerView []api.PeerStatus
	// topoCh is closed and replaced on every topology or ownership
	// change; waiters re-snapshot the world when it fires.
	topoCh chan struct{}

	// fomu serializes failover passes — and, since dynamic membership,
	// every membership transition that interacts with them: admin
	// add/remove, drain sweeps, and probe rejoins. Two probe rounds (or
	// a probe round and an admin call) can no longer race re-placement
	// of the same route.
	fomu sync.Mutex

	jobsRouted      atomic.Int64
	replays         atomic.Int64
	resubmitted     atomic.Int64
	jobsLost        atomic.Int64
	shardsDown      atomic.Int64
	shardsRecovered atomic.Int64

	membersAdded     atomic.Int64
	membersRemoved   atomic.Int64
	jobsHandedOff    atomic.Int64
	routesReclaimed  atomic.Int64
	orphansCancelled atomic.Int64
	epochConflicts   atomic.Int64

	mutationsForwarded atomic.Int64
	epochCatchUps      atomic.Int64
	standbysPromoted   atomic.Int64

	// repl is the peer mutation replication ledger; flushing holds the
	// single-flight guard so a CheckNow round and an admin handler never
	// forward the same record concurrently.
	repl     *replicator
	flushing atomic.Bool
}

// NewRouter builds a router over the member list and starts its health
// loop. Members start alive and are demoted by failed probes.
func NewRouter(members []Member, cfg Config) (*Router, error) {
	if len(members) == 0 {
		return nil, errors.New("shard: router needs at least one member")
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 2
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		peerProbe: &http.Client{Timeout: 2 * time.Second},
		routes:    make(map[string]*route),
		byKey:     make(map[string]*route),
		topoCh:    make(chan struct{}),
	}
	var list []*member
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m.Name == "" || m.Backend == nil {
			cancel()
			return nil, fmt.Errorf("shard: member needs a name and a backend (got %+v)", m.Name)
		}
		if seen[m.Name] {
			cancel()
			return nil, fmt.Errorf("shard: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
		list = append(list, &member{name: m.Name, addr: m.Addr, be: m.Backend, alive: true, down: make(chan struct{})})
	}
	rt.mem = newMembership(list, cfg.InitialEpoch)
	repl, err := newReplicator(cfg.ReplicationLog)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("shard: replication log: %w", err)
	}
	rt.repl = repl
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop and closes every backend.
func (rt *Router) Close() error {
	rt.cancel()
	rt.wg.Wait()
	var first error
	for _, m := range rt.mem.snapshot() {
		if err := m.be.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := rt.repl.close(); err != nil && first == nil {
		first = err
	}
	return first
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// bumpTopo wakes every topology waiter (stream proxies parked on a
// dead owner, Submit replays) by closing the broadcast channel and
// replacing it.
func (rt *Router) bumpTopo() {
	rt.mu.Lock()
	close(rt.topoCh)
	rt.topoCh = make(chan struct{})
	rt.mu.Unlock()
}

// ---- health and failover ----

func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.CheckInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
			rt.CheckNow()
		}
	}
}

// CheckNow runs one probe round over every member, refreshes the
// last-observed status of routes on alive members, and reconciles
// routes off dead ones. The refresh keeps failover honest: the
// queued-vs-running decision is at most one probe round stale, so a
// job that started just before its shard died is finalized as lost
// instead of silently re-run. The health loop calls CheckNow on a
// ticker; tests call it directly to make detection deterministic.
func (rt *Router) CheckNow() {
	for _, m := range rt.mem.snapshot() {
		h, err := m.be.Check(rt.ctx)
		if err != nil {
			rt.noteFailure(m, err)
		} else {
			rt.noteSuccess(m, h)
			rt.refreshFrom(m)
		}
	}
	rt.reconcile()
	rt.sweepDraining()
	rt.promoteReplacements(rt.ctx)
	rt.checkPeers()
	rt.flushReplication()
}

// refreshFrom folds one shard's live listing into the route table.
func (rt *Router) refreshFrom(m *member) {
	jobs, err := m.be.List(rt.ctx)
	if err != nil {
		return
	}
	idx := make(map[string]api.JobStatus, len(jobs))
	for _, st := range jobs {
		idx[st.ID] = st
	}
	rt.mu.Lock()
	for _, gid := range rt.order {
		r := rt.routes[gid]
		if r == nil || r.lost || r.shard != m {
			continue
		}
		if st, ok := idx[r.localID]; ok {
			r.setLast(st)
		}
	}
	rt.mu.Unlock()
}

// noteFailure records a failed probe, demoting the member after
// FailAfter consecutive failures.
func (rt *Router) noteFailure(m *member, err error) {
	m.mu.Lock()
	m.fails++
	m.lastErr = err.Error()
	trip := m.alive && m.fails >= rt.cfg.FailAfter
	if trip {
		m.alive = false
		m.downSince = time.Now()
		close(m.down)
	}
	m.mu.Unlock()
	if trip {
		rt.shardsDown.Add(1)
		rt.logf("shard %s: down after %d failed probe(s): %v", m.name, rt.cfg.FailAfter, err)
		rt.bumpTopo()
	}
}

// markDown demotes a member immediately, skipping the probe threshold.
// Used on submission-path transport failures, where the retrying
// client has already spent its budget against the shard. It reports
// whether this call performed the demotion; the caller logs it —
// submissions can run under the failover lock, where invoking the
// Logf callback would be a lock-ordering hazard.
func (rt *Router) markDown(m *member, err error) bool {
	m.mu.Lock()
	trip := m.alive
	if trip {
		m.alive = false
		m.downSince = time.Now()
		if m.fails < rt.cfg.FailAfter {
			m.fails = rt.cfg.FailAfter
		}
		m.lastErr = err.Error()
		close(m.down)
	}
	m.mu.Unlock()
	if trip {
		rt.shardsDown.Add(1)
		rt.bumpTopo()
	}
	return trip
}

// noteSuccess records a healthy probe, readmitting a demoted member.
//
// The rejoin transition is serialized through the failover lock: a
// member that failed FailAfter probes and immediately recovered used to
// race its down→alive flip against a reconcile pass still re-placing
// its queued jobs — the pass would observe the member alive again
// mid-sweep and skip (or double-place) routes depending on timing.
// Taking fomu here means a rejoin happens strictly before or strictly
// after any failover pass, never inside one. Demotions stay off fomu
// deliberately: markDown runs on the submission path, which place()
// calls with fomu already held.
func (rt *Router) noteSuccess(m *member, h api.ShardHealth) {
	m.mu.Lock()
	m.fails = 0
	m.lastErr = ""
	m.health = h
	needRejoin := !m.alive
	m.mu.Unlock()
	if !needRejoin {
		return
	}
	rt.fomu.Lock()
	m.mu.Lock()
	rejoin := !m.alive // re-check under fomu: a racing round may have won
	if rejoin {
		m.alive = true
		m.downSince = time.Time{}
		m.replaceNoted = false
		m.down = make(chan struct{})
	}
	m.mu.Unlock()
	var orphans []zombieRef
	if rejoin {
		orphans = rt.collectZombies(m)
	}
	rt.fomu.Unlock()
	if !rejoin {
		return
	}
	rt.shardsRecovered.Add(1)
	rt.cancelZombies(m, orphans)
	rt.logf("shard %s: rejoined the ring", m.name)
	rt.bumpTopo()
}

// collectZombies gathers the duplicate job copies a rejoining member
// may still hold: queued jobs failover re-placed elsewhere while it was
// down (recorded as zombie refs at re-placement time), and running jobs
// the router finalized as failed-by-shard-loss — the member may still
// be executing those, but the router already told the client they
// failed, so letting them run would burn a worker on a result nobody
// can observe. The queued copies come first: cancelling a running copy
// frees a worker, which must not pick up a queued copy still waiting
// for its own cancel. Caller holds rt.fomu.
func (rt *Router) collectZombies(m *member) []zombieRef {
	var queued, running []zombieRef
	rt.mu.Lock()
	for _, gid := range rt.order {
		r := rt.routes[gid]
		if r == nil {
			continue
		}
		kept := r.zombies[:0]
		for _, z := range r.zombies {
			if z.m == m {
				queued = append(queued, z)
			} else {
				kept = append(kept, z)
			}
		}
		r.zombies = kept
		if r.lost && !r.reaped && r.shard == m && r.localID != "" {
			r.reaped = true
			running = append(running, zombieRef{m: m, localID: r.localID})
		}
	}
	rt.mu.Unlock()
	return append(queued, running...)
}

// cancelZombies best-effort cancels the collected copies on the
// rejoined member, in order; a cancel returns once its copy is
// terminal. Failures are ignored: the copies are deduped by the
// journaled idempotency key either way, this only releases workers.
func (rt *Router) cancelZombies(m *member, orphans []zombieRef) {
	for _, z := range orphans {
		if _, err := m.be.Cancel(rt.ctx, z.localID); err == nil {
			rt.orphansCancelled.Add(1)
			rt.logf("shard %s: cancelled orphaned job copy %s after rejoin", m.name, z.localID)
		}
	}
}

// reconcile sweeps every dead member's unresolved routes. Idempotent:
// routes already moved or finalized are skipped, so repeated rounds
// against the same dead shard do nothing.
func (rt *Router) reconcile() {
	type outcome struct {
		name        string
		moved, lost int64
	}
	var outcomes []outcome
	var deferred []string
	rt.fomu.Lock()
	for _, m := range rt.mem.snapshot() {
		if !m.isAlive() {
			moved, lost, notes, acted := rt.failoverFrom(m)
			deferred = append(deferred, notes...)
			if acted {
				outcomes = append(outcomes, outcome{m.name, moved, lost})
			}
		}
	}
	rt.fomu.Unlock()
	for _, line := range deferred {
		rt.logf("%s", line)
	}
	for _, o := range outcomes {
		rt.logf("shard %s: failover re-placed %d queued job(s), finalized %d as failed-by-shard-loss", o.name, o.moved, o.lost)
	}
}

// failoverFrom resolves every non-final route owned by the dead
// member: jobs last seen queued are re-submitted to the shard that now
// wins their rendezvous hash — under the route's stable idempotency
// key, journaled shard-side, so neither a racing probe round nor a
// resurrected shard can double-run them — and jobs that had already
// started are finalized as failed-by-shard-loss, because their partial
// stream died with the shard.
func (rt *Router) failoverFrom(dead *member) (moved, lost int64, notes []string, acted bool) {
	rt.mu.Lock()
	var affected []*route
	for _, gid := range rt.order {
		r := rt.routes[gid]
		if r == nil || r.lost || r.shard != dead || r.last.Final() {
			continue
		}
		affected = append(affected, r)
	}
	rt.mu.Unlock()
	if len(affected) == 0 {
		return 0, 0, nil, false
	}
	for _, r := range affected {
		rt.mu.Lock()
		state, req, raw, key, gid := r.last.State, r.req, r.raw, r.key, r.gid
		unresolved := r.shard == dead && !r.lost
		rt.mu.Unlock()
		if !unresolved {
			continue
		}
		if state == string(hpas.StreamJobQueued) {
			st, m2, placeNotes, err := rt.place(rt.ctx, gid, req, raw, key)
			notes = append(notes, placeNotes...)
			rt.mu.Lock()
			if err != nil {
				rt.markLostLocked(r)
				lost++
			} else {
				// The dead member may still hold the old queued copy; if
				// it ever rejoins, that copy is a zombie to cancel — the
				// re-placed job is now the authoritative one.
				if r.localID != "" {
					r.zombies = append(r.zombies, zombieRef{m: dead, localID: r.localID})
				}
				r.shard = m2
				r.localID = st.ID
				r.setLast(st)
				moved++
			}
			rt.mu.Unlock()
		} else {
			rt.mu.Lock()
			rt.markLostLocked(r)
			rt.mu.Unlock()
			lost++
		}
	}
	rt.resubmitted.Add(moved)
	rt.jobsLost.Add(lost)
	rt.bumpTopo()
	return moved, lost, notes, true
}

// markLostLocked finalizes a route as failed-by-shard-loss. Caller
// holds rt.mu.
func (rt *Router) markLostLocked(r *route) {
	r.lost = true
	st := r.last
	st.State = string(hpas.StreamJobFailed)
	st.Error = hpas.ErrStreamShardLost.Error()
	if st.Finished == nil {
		now := time.Now().UTC()
		st.Finished = &now
	}
	r.setLast(st)
}

// setLast records the route's last observed status. A final status
// also drops the submission: nothing re-places a finished job, and a
// router holding every route for its lifetime must not hold every
// request body too. Caller holds rt.mu.
func (r *route) setLast(st api.JobStatus) {
	r.last = st
	if st.Final() {
		r.req, r.raw = api.JobRequest{}, nil
	}
}

// ---- replicated-router agreement ----

// divergedMsg returns the epoch conflict that suspended routing, ""
// while the peers agree.
func (rt *Router) divergedMsg() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.diverged
}

// setDiverged records (or, with "", clears) the routing suspension,
// logging the transitions. Only suspension transitions count toward
// the conflict counter; a persisting conflict is one event.
func (rt *Router) setDiverged(msg string) {
	rt.mu.Lock()
	prev := rt.diverged
	rt.diverged = msg
	rt.mu.Unlock()
	if prev == "" && msg != "" {
		rt.epochConflicts.Add(1)
		rt.logf("routing suspended: %s", msg)
	}
	if prev != "" && msg == "" {
		rt.logf("routing resumed: peers back in epoch agreement")
	}
}

// peerObservation is one probe of a peer router's /v1/topology: the
// wire-facing status Ready serves plus the raw document catch-up may
// adopt from.
type peerObservation struct {
	status api.PeerStatus
	doc    api.Topology
}

// checkPeers is the divergence probe: each peer router's /v1/topology
// is fetched and its (epoch, member-set hash) compared with ours. A
// peer at a higher epoch means this router missed membership changes;
// a peer at the same epoch with a different member-set hash means the
// replicas were fed conflicting changes. Either way the routers would
// mint clashing gids or disagree on placements, so routing is
// suspended (Submit answers ErrEpochDiverged → 503 + Retry-After).
//
// Divergence is a bounded state with a recovery path, not a terminal
// one: when a peer is ahead, the round pulls its member list, verifies
// the set-hash, and adopts it (adoptPeerSet), resuming routing in the
// same round; a same-epoch/different-hash split is broken
// deterministically — the smaller members_hash wins, and the router
// holding the larger one adopts the peer's set — so both replicas pick
// the same winner without talking to each other. A peer at a lower
// epoch is merely behind (it will catch up from us when it probes),
// and an unreachable peer is no verdict: absent a catch-up, the
// suspension only clears when every peer was reached and agreed.
func (rt *Router) checkPeers() {
	if len(rt.cfg.Peers) == 0 {
		return
	}
	epoch, setHash := rt.mem.version()
	hash := fmt.Sprintf("%016x", setHash)
	obs := make([]peerObservation, 0, len(rt.cfg.Peers))
	conflict := ""
	allReached := true
	for _, peer := range rt.cfg.Peers {
		doc, err := rt.peerTopology(peer)
		if err != nil {
			allReached = false
			obs = append(obs, peerObservation{status: api.PeerStatus{Addr: peer, Detail: err.Error()}})
			continue
		}
		st := api.PeerStatus{Addr: peer, Reachable: true, Epoch: doc.Epoch, MembersHash: doc.MembersHash}
		switch {
		case doc.Epoch > epoch:
			st.Detail = fmt.Sprintf("peer %s at membership epoch %d, ours is %d: this router is behind", peer, doc.Epoch, epoch)
		case doc.Epoch == epoch && doc.MembersHash != "" && doc.MembersHash != hash:
			st.Detail = fmt.Sprintf("peer %s at epoch %d with member-set hash %s, ours is %s: same epoch, different members", peer, doc.Epoch, doc.MembersHash, hash)
		case doc.Epoch < epoch:
			st.Detail = fmt.Sprintf("peer %s at epoch %d, ours is %d: peer is behind", peer, doc.Epoch, epoch)
		default:
			st.Agree = true
		}
		if conflict == "" && !st.Agree && doc.Epoch >= epoch {
			conflict = st.Detail
		}
		obs = append(obs, peerObservation{status: st, doc: doc})
	}
	rt.setPeerView(obs)
	if conflict == "" {
		if allReached {
			rt.setDiverged("")
		}
		return
	}
	if src := rt.catchUpSource(obs, epoch, setHash); src != nil {
		notes, err := rt.adoptPeerSet(src.doc)
		for _, line := range notes {
			rt.logf("%s", line)
		}
		if err == nil {
			rt.epochCatchUps.Add(1)
			rt.setDiverged("")
			rt.logf("membership: caught up to peer %s — adopted epoch %d, member-set hash %s",
				src.status.Addr, src.doc.Epoch, src.doc.MembersHash)
			rt.bumpTopo()
			return
		}
		conflict = fmt.Sprintf("%s; catch-up failed: %v", conflict, err)
	}
	rt.setDiverged(conflict)
}

// setPeerView publishes the probe round's per-peer observations.
func (rt *Router) setPeerView(obs []peerObservation) {
	view := make([]api.PeerStatus, len(obs))
	for i, o := range obs {
		view[i] = o.status
	}
	rt.mu.Lock()
	rt.peerView = view
	rt.mu.Unlock()
}

// catchUpSource picks the peer whose member set this router should
// adopt, nil when it should hold its own: the reachable peer with the
// highest epoch above ours, or — at equal epochs with differing hashes
// — a peer whose hash wins the deterministic tie-break (smaller
// members_hash wins; the router holding the larger hash yields). Both
// replicas of a split evaluate the same rule, so exactly one of them
// adopts and the other keeps its set until agreement clears it.
func (rt *Router) catchUpSource(obs []peerObservation, epoch, setHash uint64) *peerObservation {
	var src *peerObservation
	for i := range obs {
		o := &obs[i]
		if !o.status.Reachable {
			continue
		}
		if o.doc.Epoch > epoch && (src == nil || o.doc.Epoch > src.doc.Epoch) {
			src = o
		}
	}
	if src != nil {
		return src
	}
	for i := range obs {
		o := &obs[i]
		if !o.status.Reachable || o.doc.Epoch != epoch || o.doc.MembersHash == "" {
			continue
		}
		peerHash, err := strconv.ParseUint(o.doc.MembersHash, 16, 64)
		if err != nil || peerHash >= setHash {
			continue
		}
		if src == nil || o.doc.MembersHash < src.doc.MembersHash {
			src = o
		}
	}
	return src
}

// peerTopology fetches one peer router's discovery document with the
// non-retrying probe client.
func (rt *Router) peerTopology(base string) (api.Topology, error) {
	req, err := http.NewRequestWithContext(rt.ctx, http.MethodGet, strings.TrimRight(base, "/")+"/v1/topology", nil)
	if err != nil {
		return api.Topology{}, err
	}
	resp, err := rt.peerProbe.Do(req)
	if err != nil {
		return api.Topology{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.Topology{}, fmt.Errorf("shard: peer %s topology: status %d", base, resp.StatusCode)
	}
	var doc api.Topology
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return api.Topology{}, fmt.Errorf("shard: peer %s topology: %w", base, err)
	}
	return doc, nil
}

// ---- placement ----

// aliveNames snapshots the names of serving ring members (draining
// members still serve their existing jobs, so they are included here;
// they are excluded from new placements by placementNames).
func (rt *Router) aliveNames() []string {
	members := rt.mem.snapshot()
	names := make([]string, 0, len(members))
	for _, m := range members {
		if m.isAlive() {
			names = append(names, m.name)
		}
	}
	return names
}

// placementNames snapshots the names of placement-eligible members:
// alive and not draining.
func (rt *Router) placementNames() []string {
	members := rt.mem.snapshot()
	names := make([]string, 0, len(members))
	for _, m := range members {
		if m.placementEligible() {
			names = append(names, m.name)
		}
	}
	return names
}

// ownerOf returns the placement-eligible member winning gid's
// rendezvous hash, or nil when none is eligible.
func (rt *Router) ownerOf(gid string) *member {
	win := rendezvousOwner(gid, rt.placementNames())
	if win == "" {
		return nil
	}
	m, _ := rt.mem.get(win)
	return m
}

// place submits the request to gid's rendezvous owner. A shard that
// fails at the transport level is marked down and the next winner
// tried; API-level outcomes (429 queue full, validation errors) are
// the caller's answer and end the search. Demotions are returned as
// deferred log lines, not logged here: failover calls place with the
// failover lock held, and the Logf callback must never run under it.
func (rt *Router) place(ctx context.Context, gid string, req api.JobRequest, raw []byte, key string) (api.JobStatus, *member, []string, error) {
	var notes []string
	for range rt.mem.snapshot() { // every retry kills one member: bounded
		m := rt.ownerOf(gid)
		if m == nil {
			return api.JobStatus{}, nil, notes, ErrNoShards
		}
		st, _, err := submitTo(ctx, m.be, req, raw, key)
		if err == nil {
			return st, m, notes, nil
		}
		if errors.Is(err, ErrShardDown) || errors.Is(err, hpas.ErrStreamClosed) {
			if rt.markDown(m, err) {
				notes = append(notes, fmt.Sprintf("shard %s: marked down on failed submit: %v", m.name, err))
			}
			continue
		}
		return api.JobStatus{}, m, notes, err
	}
	return api.JobStatus{}, nil, notes, ErrNoShards
}

// ---- the routed job surface ----

// publicLocked renders a route in its router-facing form: the global
// ID and the router's stream path replace the shard-local ones.
// Caller holds rt.mu.
func (rt *Router) publicLocked(r *route) api.JobStatus {
	st := r.last
	st.ID = r.gid
	st.Stream = "/v1/jobs/" + r.gid + "/stream"
	return st
}

// Submit routes one submission: assign a global ID, hash it onto a
// shard, and submit under the route's own idempotency key. clientKey
// is the client's Idempotency-Key ("" if none): repeats are answered
// from the existing route without touching any shard, mirroring the
// single-instance replay contract.
func (rt *Router) Submit(ctx context.Context, req api.JobRequest, clientKey string) (api.JobStatus, bool, error) {
	return rt.SubmitRaw(ctx, req, nil, clientKey)
}

// SubmitRaw is Submit with the request's wire encoding already in
// hand: the router's HTTP handler reads the body once and forwards
// those bytes to the shard verbatim (raw nil falls back to marshaling
// per hop). req must be the decoded form of raw; the shard revalidates
// the bytes on arrival, so the two cannot drift silently.
func (rt *Router) SubmitRaw(ctx context.Context, req api.JobRequest, raw []byte, clientKey string) (api.JobStatus, bool, error) {
	rt.mu.Lock()
	if msg := rt.diverged; msg != "" {
		rt.mu.Unlock()
		return api.JobStatus{}, false, fmt.Errorf("%w: %s", ErrEpochDiverged, msg)
	}
	if clientKey != "" {
		if r, ok := rt.byKey[clientKey]; ok {
			placed := r.placed
			rt.mu.Unlock()
			select {
			case <-placed:
			case <-ctx.Done():
				return api.JobStatus{}, false, ctx.Err()
			}
			rt.mu.Lock()
			st, perr := rt.publicLocked(r), r.placeErr
			rt.mu.Unlock()
			if perr != nil {
				return api.JobStatus{}, false, perr
			}
			rt.replays.Add(1)
			return st, true, nil
		}
	}
	gid := rt.mem.nextGID()
	r := &route{
		gid:       gid,
		key:       "hpasr-" + gid,
		clientKey: clientKey,
		req:       req,
		raw:       raw,
		placed:    make(chan struct{}),
	}
	rt.routes[gid] = r
	rt.order = append(rt.order, gid)
	if clientKey != "" {
		rt.byKey[clientKey] = r
	}
	rt.mu.Unlock()

	st, m, notes, err := rt.place(ctx, gid, req, raw, r.key)
	for _, line := range notes {
		rt.logf("%s", line)
	}
	rt.mu.Lock()
	if err != nil {
		r.placeErr = err
		delete(rt.routes, gid) // the stale gid in rt.order is skipped by readers
		if clientKey != "" && rt.byKey[clientKey] == r {
			delete(rt.byKey, clientKey)
		}
	} else {
		r.shard = m
		r.localID = st.ID
		r.setLast(st)
	}
	close(r.placed)
	pub := rt.publicLocked(r)
	rt.mu.Unlock()
	rt.bumpTopo()
	if err != nil {
		return api.JobStatus{}, false, err
	}
	rt.jobsRouted.Add(1)
	return pub, false, nil
}

// Has reports whether the router tracks gid.
func (rt *Router) Has(gid string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, ok := rt.routes[gid]
	return ok
}

// Get returns the routed view of job gid, refreshed from the owning
// shard when it is reachable and served from the last observation —
// never an error, never a guess dressed as live data — when it is not.
func (rt *Router) Get(ctx context.Context, gid string) (api.JobStatus, error) {
	rt.mu.Lock()
	r, ok := rt.routes[gid]
	if !ok {
		rt.mu.Unlock()
		return api.JobStatus{}, fmt.Errorf("%w: %q", ErrNotFound, gid)
	}
	m, localID, lost := r.shard, r.localID, r.lost
	cached := rt.publicLocked(r)
	rt.mu.Unlock()
	if lost || m == nil || !m.isAlive() {
		return cached, nil
	}
	st, err := m.be.Get(ctx, localID)
	if err != nil {
		return cached, nil
	}
	rt.mu.Lock()
	if !r.lost && r.shard == m {
		r.setLast(st)
	}
	out := rt.publicLocked(r)
	rt.mu.Unlock()
	return out, nil
}

// List is the scatter-gather listing: every alive shard is asked in
// parallel, results are merged through the route table, and the output
// is ordered by global ID assignment — deterministic across calls and
// across shard deaths, since lost and unreachable jobs fall back to
// their last observed status instead of vanishing.
func (rt *Router) List(ctx context.Context) ([]api.JobStatus, error) {
	var alive []*member
	for _, m := range rt.mem.snapshot() {
		if m.isAlive() {
			alive = append(alive, m)
		}
	}
	results := make([]map[string]api.JobStatus, len(alive))
	var wg sync.WaitGroup
	for i, m := range alive {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			jobs, err := m.be.List(ctx)
			if err != nil {
				return // unreachable: merged from cache below
			}
			idx := make(map[string]api.JobStatus, len(jobs))
			for _, st := range jobs {
				idx[st.ID] = st
			}
			results[i] = idx
		}(i, m)
	}
	wg.Wait()
	byMember := make(map[*member]map[string]api.JobStatus, len(alive))
	for i, m := range alive {
		if results[i] != nil {
			byMember[m] = results[i]
		}
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]api.JobStatus, 0, len(rt.order))
	for _, gid := range rt.order {
		r := rt.routes[gid]
		if r == nil || (r.shard == nil && !r.lost) {
			continue // aborted or still-placing routes are not listed
		}
		if !r.lost {
			if idx := byMember[r.shard]; idx != nil {
				if st, ok := idx[r.localID]; ok {
					r.setLast(st)
				}
			}
		}
		out = append(out, rt.publicLocked(r))
	}
	return out, nil
}

// Cancel forwards a cancellation to the owning shard. Lost jobs are
// already final and answer from the route.
func (rt *Router) Cancel(ctx context.Context, gid string) (api.JobStatus, error) {
	rt.mu.Lock()
	r, ok := rt.routes[gid]
	if !ok {
		rt.mu.Unlock()
		return api.JobStatus{}, fmt.Errorf("%w: %q", ErrNotFound, gid)
	}
	m, localID, lost := r.shard, r.localID, r.lost
	cached := rt.publicLocked(r)
	rt.mu.Unlock()
	if lost {
		return cached, nil
	}
	if m == nil || !m.isAlive() {
		return api.JobStatus{}, fmt.Errorf("%w: owner of %q unreachable", ErrShardDown, gid)
	}
	st, err := m.be.Cancel(ctx, localID)
	if err != nil {
		return api.JobStatus{}, err
	}
	rt.mu.Lock()
	if !r.lost && r.shard == m {
		r.setLast(st)
	}
	out := rt.publicLocked(r)
	rt.mu.Unlock()
	return out, nil
}

// callerAbort wraps an error raised by the consumer's fn so the retry
// loop can tell "the consumer quit" from "the shard quit".
type callerAbort struct{ err error }

func (e *callerAbort) Error() string { return e.err.Error() }

// Stream proxies job gid's message stream from log index from,
// delivering each message exactly once across shard deaths: the proxy
// tracks the last delivered index, cuts a follow pinned to a shard the
// router has demoted, waits out the failover, and resumes on the new
// owner from exactly where delivery stopped. A job finalized as
// failed-by-shard-loss gets the terminal frame its dead shard never
// sent, so every follower terminates cleanly.
func (rt *Router) Stream(ctx context.Context, gid string, from int, fn func(hpas.StreamMessage) error) error {
	return rt.StreamFrames(ctx, gid, from, func(f hpas.StreamFrame) error {
		var msg hpas.StreamMessage
		if err := json.Unmarshal(f.Data, &msg); err != nil {
			return fmt.Errorf("bad proxied frame %q: %w", f.Data, err)
		}
		msg.Seq = f.Seq
		return fn(msg)
	})
}

// StreamFrames is Stream in wire form, and the implementation behind
// it: the proxy resumes, fails over, and synthesizes lost-shard
// terminal frames exactly as Stream documents, but each message moves
// as the bytes the shard encoded — the router never unmarshals what it
// only forwards.
func (rt *Router) StreamFrames(ctx context.Context, gid string, from int, fn func(hpas.StreamFrame) error) error {
	next := from
	for {
		rt.mu.Lock()
		r, ok := rt.routes[gid]
		if !ok {
			rt.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrNotFound, gid)
		}
		lost, m, localID := r.lost, r.shard, r.localID
		state, errText := r.last.State, r.last.Error
		topo := rt.topoCh
		rt.mu.Unlock()

		if lost {
			// Routes finalized by shard loss replay as failed; routes
			// orphaned after finishing (owner removed before its history
			// could be handed off) replay their real terminal state.
			data, err := json.Marshal(hpas.StreamMessage{
				Type:  "done",
				State: hpas.StreamJobState(state),
				Error: errText,
			})
			if err != nil {
				return err
			}
			return fn(hpas.StreamFrame{Seq: next, Type: "done", Data: data})
		}
		if m == nil || !m.isAlive() {
			// Ownership is in flux; wait for the next topology change.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-topo:
			}
			continue
		}

		// Follow the owner, cutting the connection ourselves the moment
		// the router demotes it — a half-dead shard can hold a TCP
		// stream open long after it stopped doing useful work.
		downCh := m.downChan()
		sctx, cancel := context.WithCancel(ctx)
		watchStop := make(chan struct{})
		go func() {
			select {
			case <-downCh:
				cancel()
			case <-watchStop:
			}
		}()
		var aborted *callerAbort
		err := m.be.StreamFrames(sctx, localID, next, func(f hpas.StreamFrame) error {
			if ferr := fn(f); ferr != nil {
				ab := &callerAbort{err: ferr}
				aborted = ab
				return ab
			}
			if f.Seq >= next {
				next = f.Seq + 1
			}
			return nil
		})
		close(watchStop)
		cancel()
		if err == nil {
			return nil
		}
		if aborted != nil {
			return aborted.err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// The shard cut us (or the router cut the shard). Give the
		// health loop a beat to resolve ownership, then re-route.
		t := time.NewTimer(rt.cfg.CheckInterval)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-topo:
			t.Stop()
		case <-t.C:
		}
	}
}

// ---- aggregate views ----

// snapshotShards renders the member list with per-shard route counts,
// membership state, and the last health observation, in configuration
// order.
func (rt *Router) snapshotShards() []api.ShardInfo {
	members := rt.mem.snapshot()
	rt.mu.Lock()
	owned := make(map[*member]int, len(members))
	for _, gid := range rt.order {
		if r := rt.routes[gid]; r != nil && r.shard != nil {
			owned[r.shard]++
		}
	}
	rt.mu.Unlock()
	out := make([]api.ShardInfo, 0, len(members))
	for _, m := range members {
		m.mu.Lock()
		state := "alive"
		switch {
		case !m.alive:
			state = "down"
		case m.leaving:
			state = "draining"
		}
		out = append(out, api.ShardInfo{
			Name:                m.name,
			Addr:                m.addr,
			Alive:               m.alive,
			State:               state,
			Jobs:                owned[m],
			ConsecutiveFailures: m.fails,
			LastError:           m.lastErr,
			Health:              m.health,
		})
		m.mu.Unlock()
	}
	return out
}

// Stats snapshots the router's own counters.
func (rt *Router) Stats() api.RouterStats {
	rt.mu.Lock()
	tracked := len(rt.routes)
	rt.mu.Unlock()
	epoch, _ := rt.mem.version()
	return api.RouterStats{
		JobsRouted:       rt.jobsRouted.Load(),
		Replays:          rt.replays.Load(),
		Resubmitted:      rt.resubmitted.Load(),
		JobsLost:         rt.jobsLost.Load(),
		ShardsDown:       rt.shardsDown.Load(),
		ShardsRecovered:  rt.shardsRecovered.Load(),
		ShardsAlive:      len(rt.aliveNames()),
		RoutesTracked:    tracked,
		Epoch:            epoch,
		MembersAdded:     rt.membersAdded.Load(),
		MembersRemoved:   rt.membersRemoved.Load(),
		JobsHandedOff:    rt.jobsHandedOff.Load(),
		RoutesReclaimed:  rt.routesReclaimed.Load(),
		OrphansCancelled: rt.orphansCancelled.Load(),
		EpochConflicts:   rt.epochConflicts.Load(),

		MutationsForwarded: rt.mutationsForwarded.Load(),
		ForwardsPending:    rt.repl.pendingCount(),
		EpochCatchUps:      rt.epochCatchUps.Load(),
		StandbysPromoted:   rt.standbysPromoted.Load(),
	}
}

// Epoch returns the current membership epoch.
func (rt *Router) Epoch() uint64 {
	epoch, _ := rt.mem.version()
	return epoch
}

// Topology is the GET /v1/topology body: the canonical discovery
// document, carrying the hashing scheme, the membership epoch and
// member-set hash, and each member's state, health, and probe-failure
// count.
func (rt *Router) Topology() api.Topology {
	epoch, setHash := rt.mem.version()
	return api.Topology{
		Hashing:     RingHashing,
		Epoch:       epoch,
		MembersHash: fmt.Sprintf("%016x", setHash),
		Shards:      rt.snapshotShards(),
		Router:      rt.Stats(),
	}
}

// Ready is the router's readiness report and the HTTP status it
// travels under: ready while at least one shard is alive and the
// divergence probe has not suspended routing.
func (rt *Router) Ready() (api.RouterReady, int) {
	shards := rt.snapshotShards()
	alive := 0
	for _, s := range shards {
		if s.Alive {
			alive++
		}
	}
	rt.mu.Lock()
	peers := append([]api.PeerStatus(nil), rt.peerView...)
	rt.mu.Unlock()
	rr := api.RouterReady{Status: "ok", Shards: shards, Peers: peers}
	if msg := rt.divergedMsg(); msg != "" {
		rr.Status = "epoch-diverged"
		rr.Diverged = msg
		return rr, http.StatusServiceUnavailable
	}
	if alive == 0 {
		rr.Status = "no-shards"
		return rr, http.StatusServiceUnavailable
	}
	return rr, http.StatusOK
}

// Metrics aggregates the router counters with every alive shard's
// manager telemetry (fetched in parallel) and cross-shard totals.
func (rt *Router) Metrics(ctx context.Context) map[string]any {
	members := rt.mem.snapshot()
	type snap struct {
		stats hpas.StreamStats
		ok    bool
	}
	snaps := make([]snap, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		if !m.isAlive() {
			continue
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			st, err := m.be.Metrics(ctx)
			if err == nil {
				snaps[i] = snap{stats: st, ok: true}
			}
		}(i, m)
	}
	wg.Wait()

	shards := make(map[string]any, len(members))
	var agg struct {
		JobsRunning      int64 `json:"jobs_running"`
		JobsDone         int64 `json:"jobs_done"`
		JobsFailed       int64 `json:"jobs_failed"`
		JobsCancelled    int64 `json:"jobs_cancelled"`
		QueueDepth       int   `json:"queue_depth"`
		Workers          int   `json:"workers"`
		WindowsProcessed int64 `json:"windows_processed"`
		EventsEmitted    int64 `json:"events_emitted"`
	}
	for i, m := range members {
		if !snaps[i].ok {
			shards[m.name] = map[string]string{"status": "unreachable"}
			continue
		}
		st := snaps[i].stats
		shards[m.name] = st
		agg.JobsRunning += st.JobsRunning
		agg.JobsDone += st.JobsDone
		agg.JobsFailed += st.JobsFailed
		agg.JobsCancelled += st.JobsCancelled
		agg.QueueDepth += st.QueueDepth
		agg.Workers += st.Workers
		agg.WindowsProcessed += st.WindowsProcessed
		agg.EventsEmitted += st.EventsEmitted
	}
	return map[string]any{
		"router":    rt.Stats(),
		"shards":    shards,
		"aggregate": agg,
	}
}
