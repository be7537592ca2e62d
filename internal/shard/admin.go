package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"hpas"
	"hpas/api"
)

// Runtime membership administration: the Router half of the dynamic
// membership state machine (see membership.go for the versioning
// model). AddMember and RemoveMember are the only entry points that
// mutate the administered set; both run under the failover lock, so an
// admin mutation, a failover pass, a drain sweep, and a probe rejoin
// are strictly serialized — no two of them ever re-place, hand off, or
// rebind the same route concurrently.
//
// Removal comes in two shapes. A drain (the default) marks the member
// leaving: it keeps serving its existing jobs but receives no new
// placements, its queued jobs are re-homed immediately (exactly-once,
// under their journaled idempotency keys), its finished jobs' journal
// histories are handed off to the members that inherit them, and the
// member is detached once its running jobs finish — or when DrainGrace
// expires, whichever is first. A hard removal (?drain=false) skips the
// waiting: running jobs are cancelled and finalized failed-by-shard-
// loss, and whatever history cannot be handed off is orphaned (its
// routes answer from the router's cache).

// Members renders the administered member set at its current epoch:
// the GET /v1/admin/members body.
func (rt *Router) Members() api.MemberList {
	epoch, setHash := rt.mem.version()
	return api.MemberList{
		Epoch:       epoch,
		MembersHash: fmt.Sprintf("%016x", setHash),
		Members:     rt.snapshotShards(),
	}
}

// AddMember admits a shard into the ring at runtime, bumping the
// membership epoch. expectEpoch, when nonzero, is a compare-and-swap
// precondition: the mutation only applies if it matches the current
// epoch (ErrEpochMismatch otherwise), so two operators working from
// the same member list cannot cross.
//
// A joining member that holds job history the router finalized as
// failed-by-shard-loss — a replacement shard recovered from a dead
// member's journal — is probed for it: every lost route whose first
// handoff record carries the route's own idempotency key is reclaimed,
// rebound to the new member so stream replays serve the journaled
// history again instead of a synthesized terminal frame.
func (rt *Router) AddMember(ctx context.Context, m Member, expectEpoch uint64) (api.MemberChange, error) {
	return rt.addMember(ctx, m, expectEpoch, false)
}

// addMember is AddMember's forwarded-aware core. forwarded marks a
// mutation replicated from a peer router: it applies under the same CAS
// guard but is not re-recorded for replication — the originating router
// owns the broadcast, and re-recording would bounce mutations between
// peers forever.
func (rt *Router) addMember(ctx context.Context, m Member, expectEpoch uint64, forwarded bool) (api.MemberChange, error) {
	if m.Name == "" || m.Backend == nil {
		return api.MemberChange{}, fmt.Errorf("%w: member needs a name and a backend", ErrBadRequest)
	}
	rt.fomu.Lock()
	epoch, _ := rt.mem.version()
	if expectEpoch != 0 && expectEpoch != epoch {
		rt.fomu.Unlock()
		return api.MemberChange{}, fmt.Errorf("%w: expected epoch %d, membership is at %d", ErrEpochMismatch, expectEpoch, epoch)
	}
	mm := &member{name: m.Name, addr: m.Addr, be: m.Backend, alive: true, down: make(chan struct{})}
	newEpoch, err := rt.mem.add(mm)
	if err != nil {
		rt.fomu.Unlock()
		return api.MemberChange{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	reclaimed, notes := rt.reclaimRoutes(ctx, mm)
	rt.fomu.Unlock()
	rt.membersAdded.Add(1)
	for _, line := range notes {
		rt.logf("%s", line)
	}
	rt.logf("shard %s: joined the ring at epoch %d (%d route(s) reclaimed)", m.Name, newEpoch, reclaimed)
	rt.bumpTopo()
	if !forwarded {
		rt.recordMutation("join", m.Name, m.Addr, "", epoch, newEpoch)
		rt.flushReplication()
	}
	return api.MemberChange{Name: m.Name, Epoch: newEpoch, Reclaimed: reclaimed}, nil
}

// RemoveMember takes a member out of the ring: gracefully when drain
// is true (the member drains; detach happens once its running jobs
// finish), immediately otherwise. expectEpoch is the same CAS
// precondition AddMember documents. Repeating a drain request is
// idempotent: it re-runs the drain pass without bumping the epoch
// again.
func (rt *Router) RemoveMember(ctx context.Context, name string, drain bool, expectEpoch uint64) (api.MemberChange, error) {
	return rt.removeMember(ctx, name, drain, expectEpoch, false)
}

// removeMember is RemoveMember's forwarded-aware core; see addMember
// for the forwarded contract. A replication record is cut only when the
// call actually moved the epoch — a repeated drain request converges
// without re-broadcasting.
func (rt *Router) removeMember(ctx context.Context, name string, drain bool, expectEpoch uint64, forwarded bool) (api.MemberChange, error) {
	rt.fomu.Lock()
	epoch, _ := rt.mem.version()
	if expectEpoch != 0 && expectEpoch != epoch {
		rt.fomu.Unlock()
		return api.MemberChange{}, fmt.Errorf("%w: expected epoch %d, membership is at %d", ErrEpochMismatch, expectEpoch, epoch)
	}
	m, ok := rt.mem.get(name)
	if !ok {
		rt.fomu.Unlock()
		return api.MemberChange{}, fmt.Errorf("%w: no member %q", ErrNotFound, name)
	}
	if len(rt.mem.snapshot()) == 1 {
		rt.fomu.Unlock()
		return api.MemberChange{}, fmt.Errorf("%w: refusing to remove the last member", ErrBadRequest)
	}
	prevAddr := m.addr
	if m.markLeaving(time.Now()) {
		// Drain intent is administered state replicated routers must
		// agree on: starting one bumps the epoch.
		rt.mem.bump()
	}
	ch, notes := rt.drainPass(ctx, m, !drain)
	rt.fomu.Unlock()
	for _, line := range notes {
		rt.logf("%s", line)
	}
	rt.bumpTopo()
	ch.Name = name
	if !forwarded && ch.Epoch != epoch {
		kind := "remove"
		if drain {
			kind = "drain"
		}
		rt.recordMutation(kind, name, "", prevAddr, epoch, ch.Epoch)
		rt.flushReplication()
	}
	return ch, nil
}

// sweepDraining advances every draining member's removal: re-run the
// evacuation pass (handing off histories that finished since the last
// round) and detach the member once nothing is left pending — or
// forcibly once DrainGrace has expired. Called from every CheckNow
// round.
func (rt *Router) sweepDraining() {
	for _, m := range rt.mem.snapshot() {
		m.mu.Lock()
		leaving, since := m.leaving, m.drainedAt
		m.mu.Unlock()
		if !leaving {
			continue
		}
		force := rt.cfg.DrainGrace > 0 && time.Since(since) >= rt.cfg.DrainGrace
		rt.fomu.Lock()
		_, notes := rt.drainPass(rt.ctx, m, force)
		rt.fomu.Unlock()
		for _, line := range notes {
			rt.logf("%s", line)
		}
	}
}

// drainPass runs one evacuation round over a leaving member and
// detaches it when nothing is pending (or unconditionally under
// force). Caller holds rt.fomu; log lines are returned, not emitted —
// the Logf callback never runs under the failover lock.
func (rt *Router) drainPass(ctx context.Context, m *member, force bool) (api.MemberChange, []string) {
	requeued, handedOff, lost, pending, notes := rt.evacuate(ctx, m, force)
	ch := api.MemberChange{Requeued: requeued, HandedOff: handedOff, Lost: lost}
	if pending == 0 || force {
		notes = append(notes, rt.detach(m)...)
	} else {
		ch.Draining = true
	}
	ch.Epoch, _ = rt.mem.version()
	return ch, notes
}

// evacuate resolves the routes bound to a leaving member: queued jobs
// are cancelled at the source (a cancel that lands before the job
// starts proves it never ran — the exactly-once guarantee) and
// re-placed on their new rendezvous owner under the same journaled
// idempotency key; finished jobs' histories are handed off; running
// jobs wait (pending) or, under force, are cancelled and finalized
// failed-by-shard-loss. Caller holds rt.fomu.
func (rt *Router) evacuate(ctx context.Context, m *member, force bool) (requeued, handedOff, lost, pending int, notes []string) {
	rt.refreshFrom(m) // shrink the queued-vs-running staleness window
	rt.mu.Lock()
	var affected []*route
	for _, gid := range rt.order {
		r := rt.routes[gid]
		if r == nil || r.lost || r.shard != m {
			continue
		}
		affected = append(affected, r)
	}
	rt.mu.Unlock()
	for _, r := range affected {
		rt.mu.Lock()
		bound := r.shard == m && !r.lost
		state := r.last.State
		gid, req, raw, key, localID := r.gid, r.req, r.raw, r.key, r.localID
		rt.mu.Unlock()
		if !bound {
			continue
		}
		switch {
		case state == string(hpas.StreamJobQueued):
			st, err := m.be.Cancel(ctx, localID)
			if err == nil && st.Started == nil {
				nst, m2, placeNotes, perr := rt.place(ctx, gid, req, raw, key)
				notes = append(notes, placeNotes...)
				if perr == nil {
					rt.mu.Lock()
					r.shard, r.localID = m2, nst.ID
					r.setLast(nst)
					rt.mu.Unlock()
					requeued++
					continue
				}
				err = perr
			} else if err == nil {
				// The cancel raced a start: the job had already begun, so
				// it is now terminal at the source — hand its history off
				// like any finished job.
				rt.mu.Lock()
				r.setLast(st)
				rt.mu.Unlock()
				if herr := rt.handoffRoute(ctx, m, r); herr == nil {
					handedOff++
				} else if !force {
					pending++
				}
				continue
			}
			if force {
				rt.mu.Lock()
				rt.markLostLocked(r)
				rt.mu.Unlock()
				lost++
			} else {
				notes = append(notes, fmt.Sprintf("shard %s: drain could not re-home queued job %s yet: %v", m.name, gid, err))
				pending++
			}
		case hpas.StreamJobState(state).Final():
			if err := rt.handoffRoute(ctx, m, r); err == nil {
				handedOff++
			} else if force {
				notes = append(notes, fmt.Sprintf("shard %s: handoff of %s failed, orphaning: %v", m.name, gid, err))
			} else {
				pending++
			}
		default: // running: a drain waits, a hard removal does not
			if force {
				if _, err := m.be.Cancel(ctx, localID); err != nil {
					notes = append(notes, fmt.Sprintf("shard %s: could not cancel running job %s on removal: %v", m.name, gid, err))
				}
				rt.mu.Lock()
				rt.markLostLocked(r)
				rt.mu.Unlock()
				lost++
			} else {
				pending++
			}
		}
	}
	return requeued, handedOff, lost, pending, notes
}

// handoffRoute migrates one terminal route's journal history from src
// to the member that now wins its rendezvous hash: stream the records
// (resuming from the count already received if a transfer is cut
// mid-stream), have the destination adopt them — deduplicated on the
// route's idempotency key — and rebind the route. Caller holds
// rt.fomu.
func (rt *Router) handoffRoute(ctx context.Context, src *member, r *route) error {
	rt.mu.Lock()
	gid, localID := r.gid, r.localID
	rt.mu.Unlock()
	dst := rt.ownerOf(gid) // placement-eligible only: never src, never a down member
	if dst == nil || dst == src {
		return ErrNoShards
	}
	var recs [][]byte
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		lastErr = src.be.Handoff(ctx, localID, len(recs), func(rec []byte) error {
			recs = append(recs, append([]byte(nil), rec...))
			return nil
		})
		if lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		return lastErr
	}
	if len(recs) == 0 {
		return fmt.Errorf("shard: empty handoff history for %s", gid)
	}
	st, _, err := dst.be.Adopt(ctx, gid, recs)
	if err != nil {
		return err
	}
	rt.jobsHandedOff.Add(1)
	rt.mu.Lock()
	if !r.lost && r.shard == src {
		r.shard, r.localID = dst, st.ID
		r.setLast(st)
	}
	rt.mu.Unlock()
	return nil
}

// errHandoffProbe is reclaimRoutes' stop sentinel: the probe only
// needs the first record, so its fn aborts the transfer with it.
var errHandoffProbe = errors.New("shard: handoff probe satisfied")

// reclaimRoutes probes a joining member for the histories of routes
// finalized as failed-by-shard-loss. The proof is the journal itself:
// the member must serve a handoff for the route's shard-local job ID
// whose first record (the spec record) carries the route's own
// idempotency key — true exactly when the member recovered the dead
// owner's journal. Proven routes are rebound and un-lost; their stream
// replays serve the adopted history again. Caller holds rt.fomu.
func (rt *Router) reclaimRoutes(ctx context.Context, m *member) (reclaimed int, notes []string) {
	rt.mu.Lock()
	var lostRoutes []*route
	for _, gid := range rt.order {
		r := rt.routes[gid]
		if r != nil && r.lost && r.localID != "" {
			lostRoutes = append(lostRoutes, r)
		}
	}
	rt.mu.Unlock()
	for _, r := range lostRoutes {
		rt.mu.Lock()
		gid, localID, key, stillLost := r.gid, r.localID, r.key, r.lost
		rt.mu.Unlock()
		if !stillLost {
			continue
		}
		var first []byte
		err := m.be.Handoff(ctx, localID, 0, func(rec []byte) error {
			first = append([]byte(nil), rec...)
			return errHandoffProbe
		})
		if (err != nil && !errors.Is(err, errHandoffProbe)) || len(first) == 0 {
			continue
		}
		var rec struct {
			Kind string `json:"k"`
			Spec struct {
				IdempotencyKey string `json:"idempotency_key"`
			} `json:"spec"`
		}
		if json.Unmarshal(first, &rec) != nil || rec.Kind != "spec" || rec.Spec.IdempotencyKey != key {
			continue
		}
		st, gerr := m.be.Get(ctx, localID)
		if gerr != nil {
			continue
		}
		rt.mu.Lock()
		if r.lost {
			r.shard = m
			r.setLast(st)
			r.lost, r.reaped = false, false
			reclaimed++
			notes = append(notes, fmt.Sprintf("shard %s: reclaimed %s — journal history proved by idempotency key", m.name, gid))
		}
		rt.mu.Unlock()
	}
	rt.routesReclaimed.Add(int64(reclaimed))
	return reclaimed, notes
}

// detach removes the member from the administered set (bumping the
// epoch: a completed removal is a membership change peers must see),
// cuts its followers, orphans whatever routes are still bound to it,
// and closes its backend. Caller holds rt.fomu; returns log lines.
func (rt *Router) detach(m *member) (notes []string) {
	// The sweepDraining path reaches here without a fresh CAS: a drain
	// sweep only advances removals already admitted through the CAS in
	// removeMember, and the !ok branch below makes a raced detach a
	// no-op rather than a double epoch bump.
	//lint:allow epochguard drain sweeps finish CAS-admitted removals; re-checking the epoch here would wedge a drain raced by an unrelated mutation
	if _, ok := rt.mem.detach(m.name); !ok {
		return nil // already detached by a racing pass
	}
	orphaned, notes := rt.retire(m)
	rt.membersRemoved.Add(1)
	if orphaned > 0 {
		notes = append(notes, fmt.Sprintf("shard %s: removed from the ring; %d route(s) orphaned", m.name, orphaned))
	} else {
		notes = append(notes, fmt.Sprintf("shard %s: removed from the ring", m.name))
	}
	return notes
}

// retire cuts a member that has already left the administered set:
// clears its drain intent, closes its down channel, orphans whatever
// routes are still bound to it, and closes its backend. Shared by
// detach (the epoch-bumping removal path) and adoptPeerSet (wholesale
// set replacement at a peer's epoch, where the peer already versioned
// the change). Caller holds rt.fomu; returns the orphan count and log
// lines.
func (rt *Router) retire(m *member) (orphaned int, notes []string) {
	m.mu.Lock()
	m.leaving = false
	if m.alive {
		m.alive = false
		close(m.down)
	}
	m.mu.Unlock()
	rt.mu.Lock()
	for _, gid := range rt.order {
		r := rt.routes[gid]
		if r == nil || r.shard != m || r.lost {
			continue
		}
		if r.last.Final() {
			// History could not be handed off; keep the real terminal
			// state and serve replays from the router's cache.
			r.lost = true
		} else {
			rt.markLostLocked(r)
		}
		orphaned++
	}
	rt.mu.Unlock()
	if err := m.be.Close(); err != nil {
		notes = append(notes, fmt.Sprintf("shard %s: backend close on removal: %v", m.name, err))
	}
	return orphaned, notes
}
