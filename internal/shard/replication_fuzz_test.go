package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// ledgerState renders every pending forward in sequence order, with
// each record's peers sorted.
func ledgerState(r *replicator) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, seq := range r.order {
		e := r.entries[seq]
		if e == nil {
			continue
		}
		peers := make([]string, 0, len(e.pending))
		for p := range e.pending {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		fmt.Fprintf(&b, "%+v %v\n", e.rec, peers)
	}
	return b.String()
}

// FuzzReplicationLedger writes arbitrary bytes as the ledger file, then
// opens it, records one mutation, closes and reopens it. Nothing may
// panic, and the reopened ledger must hold exactly what was pending
// after the first open plus the new record.
func FuzzReplicationLedger(f *testing.F) {
	for _, seed := range []string{
		"",
		`{"op":"mut","rec":{"seq":1,"kind":"join","na`,
		`{"op":"mut","rec":{"seq":1,"kind":"join","name":"s2","addr":"http://s2","from_epoch":1,"to_epoch":2},"peers":["p1"]}`,
		`{"op":"mut","rec":{"seq":1,"kind":"join","name":"s2","from_epoch":1,"to_epoch":2},"peers":["p1","p2"]}` + "\n" +
			`{"op":"ack","seq":1,"peer":"p1"}` + "\n" +
			`{"op":"mut","rec":{"seq":2,"kind":"remove","name":"s0","prev_addr":"http://s0","from_epoch":2,"to_epoch":4},"peers":["p1"]}` + "\n",
		`{"op":"mut","rec":{"seq":7,"kind":"drain","name":"s1","from_epoch":3,"to_epoch":4},"peers":["p2"]}` + "\r\n" + `{"op":"reset"}` + "\n  \n" + `{"op":"ack","seq":7`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "repl.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := newReplicator(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := r.record(replRecord{Kind: "join", Name: "s9", Addr: "http://s9", FromEpoch: 5, ToEpoch: 6}, []string{"p1", "p2"}); err != nil {
			t.Fatal(err)
		}
		want := ledgerState(r)
		if err := r.close(); err != nil {
			t.Fatal(err)
		}
		r2, err := newReplicator(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer r2.close()
		if got := ledgerState(r2); got != want {
			t.Fatalf("pending after reopen:\n%s\nwant:\n%s", got, want)
		}
	})
}
