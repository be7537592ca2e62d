package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"

	"hpas/api"
)

// Peer mutation replication: an admin membership mutation applied to
// any router is recorded in a ledger and forwarded to every configured
// peer, so operators apply a change once and the replica set converges
// on its own.
//
// The forward is idempotent by construction, which is what lets a
// partial broadcast converge instead of wedging. Each record carries
// the epoch the mutation was applied at (FromEpoch) and forwards under
// it as the CAS precondition: a peer still at that epoch applies the
// mutation exactly as an operator would have; a peer that already moved
// — because an operator beat us to it, because another peer forwarded
// first, or because it promoted a standby itself — refuses with 409,
// and the forwarder then checks *semantic* convergence against the
// peer's topology (is the joined member present? is the removed one
// gone, or replaced under the same name?) before retiring the record.
// A peer that is unreachable, or not yet convergent, keeps the record
// pending; every CheckNow round retries, strictly in sequence order per
// peer, so peers observe mutations in the order they happened.
//
// A forwarded mutation arrives marked with api.ForwardedHeader and is
// applied without being re-recorded — the loop-prevention half of the
// scheme. Mutations about members without an addr (in-process shards)
// are never recorded: a peer cannot construct a backend for them.

// replRecord is one replicated admin mutation.
type replRecord struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"` // "join" | "drain" | "remove"
	Name string `json:"name"`
	// Addr is the joining member's base URL (join only).
	Addr string `json:"addr,omitempty"`
	// PrevAddr is the removed member's base URL at removal time: the
	// convergence check for a removal is "gone, or re-joined under a
	// different addr" — which is how a remove+rejoin replacement pair
	// retires both its records even when the peer replaced the member
	// itself.
	PrevAddr string `json:"prev_addr,omitempty"`
	// FromEpoch is the epoch the mutation was applied at — the CAS
	// precondition the forward carries. ToEpoch is the epoch after it.
	FromEpoch uint64 `json:"from_epoch"`
	ToEpoch   uint64 `json:"to_epoch"`
}

// replLine is one NDJSON line of the replication journal: a mutation
// entering the ledger with its pending peer set, an ack retiring one
// (record, peer) pair, or a reset abandoning everything pending (the
// catch-up path adopted a peer's set, superseding local history).
type replLine struct {
	Op    string      `json:"op"` // "mut" | "ack" | "reset"
	Rec   *replRecord `json:"rec,omitempty"`
	Peers []string    `json:"peers,omitempty"`
	Seq   uint64      `json:"seq,omitempty"`
	Peer  string      `json:"peer,omitempty"`
}

// replEntry is a ledger record with the peers still owed its forward.
type replEntry struct {
	rec     replRecord
	pending map[string]bool
}

// replicator is the replication ledger: pending (record, peer) forwards
// in sequence order, optionally journaled to an append-only NDJSON file
// so forwards pending at a crash are retried after a restart.
type replicator struct {
	mu      sync.Mutex
	f       *os.File // nil: in-memory ledger only
	nextSeq uint64
	order   []uint64
	entries map[uint64]*replEntry
}

// newReplicator opens the ledger, replaying the journal at path when
// one is configured: fully-acked records are dropped, the rest resume
// pending. A last line without its newline was cut by a crash
// mid-append. If it does not parse it is truncated away, as
// journal.Recover drops a torn job journal's tail; the mutation it
// described was never observable. If it parses it is kept and
// newline-terminated. Either way the next append starts a line of its
// own instead of being glued onto the tail.
func newReplicator(path string) (*replicator, error) {
	r := &replicator{nextSeq: 1, entries: make(map[uint64]*replEntry)}
	if path == "" {
		return r, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err == nil {
		good := bytes.LastIndexByte(data, '\n') + 1 // end of the last whole line
		for rest := data[:good]; len(rest) > 0; {
			nl := bytes.IndexByte(rest, '\n')
			r.replay(rest[:nl])
			rest = rest[nl+1:]
		}
		if tail := data[good:]; len(tail) > 0 {
			if r.replay(tail) {
				_, err = f.Write([]byte{'\n'})
			} else {
				err = f.Truncate(int64(good))
			}
			if err == nil {
				err = f.Sync()
			}
		}
	}
	if err != nil {
		cerr := f.Close()
		_ = cerr // the read or repair error is the one worth reporting
		return nil, err
	}
	r.f = f
	return r, nil
}

// replay applies one journal line to the ledger, reporting whether it
// parsed. Unparsable lines are skipped.
func (r *replicator) replay(line []byte) bool {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return false
	}
	var l replLine
	if json.Unmarshal(line, &l) != nil {
		return false
	}
	switch l.Op {
	case "mut":
		if l.Rec == nil {
			break
		}
		pend := make(map[string]bool, len(l.Peers))
		for _, p := range l.Peers {
			pend[p] = true
		}
		r.entries[l.Rec.Seq] = &replEntry{rec: *l.Rec, pending: pend}
		r.order = append(r.order, l.Rec.Seq)
		if l.Rec.Seq >= r.nextSeq {
			r.nextSeq = l.Rec.Seq + 1
		}
	case "ack":
		if e := r.entries[l.Seq]; e != nil {
			delete(e.pending, l.Peer)
			if len(e.pending) == 0 {
				r.dropLocked(l.Seq)
			}
		}
	case "reset":
		r.entries = make(map[uint64]*replEntry)
		r.order = nil
	}
	return true
}

// appendLocked journals one line. Caller holds r.mu.
func (r *replicator) appendLocked(l replLine) error {
	if r.f == nil {
		return nil
	}
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := r.f.Write(b); err != nil {
		return err
	}
	return r.f.Sync()
}

// dropLocked removes a fully-acked record. Caller holds r.mu.
func (r *replicator) dropLocked(seq uint64) {
	delete(r.entries, seq)
	for i, s := range r.order {
		if s == seq {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// record enters a mutation pending toward the given peers.
func (r *replicator) record(rec replRecord, peers []string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec.Seq = r.nextSeq
	r.nextSeq++
	pend := make(map[string]bool, len(peers))
	for _, p := range peers {
		pend[p] = true
	}
	r.entries[rec.Seq] = &replEntry{rec: rec, pending: pend}
	r.order = append(r.order, rec.Seq)
	//lint:allow locksafe r.mu is the ledger's per-file I/O lock; serializing this file's writes is its purpose
	return r.appendLocked(replLine{Op: "mut", Rec: &rec, Peers: peers})
}

// ack retires one (record, peer) pair, reporting whether this call did
// the retiring (repeat acks are no-ops, so concurrent forwards of the
// same record count once).
func (r *replicator) ack(seq uint64, peer string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[seq]
	if e == nil || !e.pending[peer] {
		return false, nil
	}
	delete(e.pending, peer)
	if len(e.pending) == 0 {
		r.dropLocked(seq)
	}
	//lint:allow locksafe r.mu is the ledger's per-file I/O lock; the ack must be ordered after the mutation line it retires
	return true, r.appendLocked(replLine{Op: "ack", Seq: seq, Peer: peer})
}

// resetPending abandons every un-acked forward. The catch-up path calls
// it after adopting a peer's member set wholesale: whatever divergent
// local mutations the pending records described lost the tie-break, and
// retrying them against the set that superseded them could never
// converge.
func (r *replicator) resetPending() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) == 0 {
		return nil
	}
	r.entries = make(map[uint64]*replEntry)
	r.order = nil
	//lint:allow locksafe r.mu is the ledger's per-file I/O lock; serializing this file's writes is its purpose
	return r.appendLocked(replLine{Op: "reset"})
}

// pendingFor lists the records still owed to one peer, in sequence
// order.
func (r *replicator) pendingFor(peer string) []replRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []replRecord
	for _, seq := range r.order {
		if e := r.entries[seq]; e != nil && e.pending[peer] {
			out = append(out, e.rec)
		}
	}
	return out
}

// pendingCount totals the outstanding (record, peer) pairs.
func (r *replicator) pendingCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.entries {
		n += len(e.pending)
	}
	return n
}

func (r *replicator) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	f := r.f
	r.f = nil
	//lint:allow locksafe r.mu is the ledger's per-file I/O lock; the close must not race a concurrent append
	return f.Close()
}

// recordMutation enters one locally-applied admin mutation into the
// replication ledger, pending toward every configured peer. Mutations
// about members without an addr are skipped: a peer cannot construct a
// backend for an in-process shard, so local members never replicate.
func (rt *Router) recordMutation(kind, name, addr, prevAddr string, from, to uint64) {
	if len(rt.cfg.Peers) == 0 {
		return
	}
	if (kind == "join" && addr == "") || (kind != "join" && prevAddr == "") {
		return
	}
	rec := replRecord{Kind: kind, Name: name, Addr: addr, PrevAddr: prevAddr, FromEpoch: from, ToEpoch: to}
	if err := rt.repl.record(rec, rt.cfg.Peers); err != nil {
		rt.logf("replication: journal append failed: %v", err)
	}
}

// flushReplication pushes pending replication records to their peers,
// strictly in sequence order per peer: a record that neither applies
// nor converges blocks that peer's later records, so peers observe
// mutations in the order they happened. Single-flight — a CheckNow
// round and an admin handler flushing concurrently never double-send;
// the loser's records are picked up by the next round.
func (rt *Router) flushReplication() {
	if rt.repl.pendingCount() == 0 {
		return
	}
	if !rt.flushing.CompareAndSwap(false, true) {
		return
	}
	defer rt.flushing.Store(false)
	for _, peer := range rt.cfg.Peers {
		for _, rec := range rt.repl.pendingFor(peer) {
			if !rt.forwardRecord(peer, rec) {
				break
			}
			acked, err := rt.repl.ack(rec.Seq, peer)
			if err != nil {
				rt.logf("replication: journal ack failed: %v", err)
			}
			if acked {
				rt.mutationsForwarded.Add(1)
				rt.logf("replication: %s %q (seq %d, epoch %d→%d) replicated to %s",
					rec.Kind, rec.Name, rec.Seq, rec.FromEpoch, rec.ToEpoch, peer)
			}
		}
	}
}

// forwardRecord replays one mutation against a peer under its CAS
// epoch, reporting whether the record is settled there (applied now, or
// already semantically converged). Unsettled records stay pending.
func (rt *Router) forwardRecord(peer string, rec replRecord) bool {
	req, err := rt.buildForward(peer, rec)
	if err != nil {
		rt.logf("replication: cannot build forward for seq %d: %v", rec.Seq, err)
		return false
	}
	resp, err := rt.peerProbe.Do(req)
	if err != nil {
		return false // peer unreachable: retry next round
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	_ = cerr // draining for connection reuse is best-effort
	if err := resp.Body.Close(); err != nil {
		return false
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return true
	}
	// The CAS refused (or the member was not found): the peer may have
	// applied this mutation through another path — an operator, another
	// peer's forward, its own standby promotion. Semantic convergence
	// against its topology decides whether the record is done.
	return rt.forwardConverged(peer, rec)
}

// buildForward renders a replication record as the admin request the
// peer would have received from an operator, marked forwarded.
func (rt *Router) buildForward(peer string, rec replRecord) (*http.Request, error) {
	base := strings.TrimRight(peer, "/")
	switch rec.Kind {
	case "join":
		body, err := json.Marshal(api.MemberSpec{Name: rec.Name, Addr: rec.Addr, Epoch: rec.FromEpoch})
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(rt.ctx, http.MethodPost, base+"/v1/admin/members", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(api.ForwardedHeader, "1")
		return req, nil
	case "drain", "remove":
		q := url.Values{}
		q.Set("drain", strconv.FormatBool(rec.Kind == "drain"))
		q.Set("epoch", strconv.FormatUint(rec.FromEpoch, 10))
		req, err := http.NewRequestWithContext(rt.ctx, http.MethodDelete,
			base+"/v1/admin/members/"+url.PathEscape(rec.Name)+"?"+q.Encode(), nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set(api.ForwardedHeader, "1")
		return req, nil
	}
	return nil, fmt.Errorf("unknown replication record kind %q", rec.Kind)
}

// forwardConverged checks whether a peer's administered set already
// reflects the record's outcome: the join's member present under the
// right addr; the removed member gone, draining, or re-joined under a
// different addr (a replacement under the same name).
func (rt *Router) forwardConverged(peer string, rec replRecord) bool {
	doc, err := rt.peerTopology(peer)
	if err != nil {
		return false
	}
	var cur *api.ShardInfo
	for i := range doc.Shards {
		if doc.Shards[i].Name == rec.Name {
			cur = &doc.Shards[i]
			break
		}
	}
	switch rec.Kind {
	case "join":
		return cur != nil && cur.Addr == rec.Addr
	case "drain":
		return cur == nil || cur.State == "draining" || cur.Addr != rec.PrevAddr
	case "remove":
		return cur == nil || cur.Addr != rec.PrevAddr
	}
	return false
}
