package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"hpas"
	"hpas/api"
	hpasclient "hpas/client"
	"hpas/serve"
)

// trainDetector fits a service workload's detector: machines running
// app (none when empty) under the two anomalies the campaigns inject
// plus the clean class, on a 10 s effective window. It returns the
// forest-fit time alone as well, because that is the part of set-up the
// ml layer owns.
func trainDetector(seed uint64, app string) (*hpas.Detector, time.Duration, error) {
	ds, err := hpas.GenerateDataset(hpas.DatasetConfig{
		Apps:    []string{app},
		Classes: []string{"none", "cpuoccupy", "memleak"},
		Reps:    4,
		Window:  12,
		Warmup:  2,
		Seed:    seed,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("training dataset: %w", err)
	}
	t0 := time.Now()
	det, err := hpas.TrainDetector(ds, 10, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("training detector: %w", err)
	}
	return det, time.Since(t0), nil
}

// serveNode is one hpas-serve instance as cmd/hpas-serve wires it — a
// manager with its default two workers, optionally journaled through
// the resilient store, behind the real handler on a loopback listener —
// plus a count of the requests that reached it.
type serveNode struct {
	mgr      *hpas.StreamManager
	store    hpas.StreamStore // nil when in memory
	srv      *serve.Server
	ts       *httptest.Server
	requests atomic.Int64
}

// startServe opens a node. dataDir "" keeps it in memory; otherwise the
// directory's journal is opened and whatever it holds is recovered, as
// a restarted hpas-serve -data-dir does.
func startServe(det *hpas.Detector, dataDir string) (*serveNode, error) {
	n := &serveNode{}
	var recovered []hpas.StreamRecoveredJob
	if dataDir != "" {
		var failure error
		n.store, recovered = serve.OpenJournal(dataDir, func(format string, args ...any) {
			failure = fmt.Errorf(format, args...)
		})
		if failure != nil || n.store == nil {
			return nil, errors.Join(fmt.Errorf("journal in %s: %v", dataDir, failure), n.close())
		}
	}
	n.mgr = hpas.NewStreamManager(hpas.StreamConfig{Workers: 2, Queue: 16, Store: n.store})
	if err := n.mgr.Reopen(recovered); err != nil {
		return nil, errors.Join(fmt.Errorf("reopening %d recovered jobs: %w", len(recovered), err), n.close())
	}
	n.srv = serve.New(n.mgr, det, serve.Config{})
	n.ts = httptest.NewServer(counted(n.srv.Handler(), &n.requests))
	return n, nil
}

// close stops the listener, the workers and the journal, in the order a
// shutting-down hpas-serve does.
func (n *serveNode) close() error {
	if n.ts != nil {
		n.ts.Close()
	}
	if n.mgr != nil {
		n.mgr.Close()
	}
	if n.store != nil {
		return n.store.Close()
	}
	return nil
}

// counted counts requests on their way into h.
func counted(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		h.ServeHTTP(w, r)
	})
}

// newClient is the load generator's one client: default transport and
// retry policy, seeded so idempotency keys are the same every run.
func newClient(baseURL string, seed uint64) *hpasclient.Client {
	return hpasclient.New(baseURL, hpasclient.Options{Seed: int64(seed | 1)})
}

// opTimeout bounds one client call; no step comes near it.
const opTimeout = 60 * time.Second

// streamed is what following one job's stream to its end observed.
type streamed struct {
	frames    int
	first     time.Duration // t0 → first frame
	digest    uint64        // see frameDigest
	cpuEvents int           // "event" frames naming cpuoccupy
}

// frameFollower is the part of a client (or router, or shard backend)
// the stream check needs.
type frameFollower interface {
	StreamFrames(ctx context.Context, id string, from int, fn func(hpas.StreamFrame) error) error
}

// followFrames streams job id from log index from to its done frame in
// wire form and checks the stream as it goes: indices contiguous from
// the resume point, nothing after done, done present.
func followFrames(ctx context.Context, cl frameFollower, id string, from int, t0 time.Time) (streamed, error) {
	var (
		out    streamed
		next   = from
		done   bool
		hasher = newDigest()
	)
	err := cl.StreamFrames(ctx, id, from, func(f hpas.StreamFrame) error {
		if out.frames == 0 {
			out.first = time.Since(t0)
		}
		if done {
			return errors.New("frame after the done frame")
		}
		if f.Seq != next {
			return fmt.Errorf("frame seq %d, want %d", f.Seq, next)
		}
		next++
		out.frames++
		hasher.write(f)
		switch f.Type {
		case "done":
			done = true
		case "gap":
			return fmt.Errorf("gap frame at seq %d: the one client fell behind", f.Seq)
		case "event":
			if bytes.Contains(f.Data, []byte(`"class":"cpuoccupy"`)) {
				out.cpuEvents++
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	if !done {
		return out, errors.New("stream ended without a done frame")
	}
	out.digest = hasher.sum()
	return out, nil
}

// frameDigest hashes a stream's frames: each frame's type and data
// bytes, in order. With the indices checked contiguous as they arrive,
// that fixes every byte of the SSE stream. Event frames are folded in
// when the next other frame arrives — in order mid-stream, but as an
// unordered set before the done frame, because the pipeline's
// end-of-run flush closes the nodes' open events in map order
// (internal/stream Pipeline.Flush), so which of two trailing events
// comes first is not the program's to repeat.
type frameDigest struct {
	h       hash.Hash64
	scratch [8]byte
	pending []uint64 // event frames since the last other frame
}

func newDigest() *frameDigest { return &frameDigest{h: fnv.New64a()} }

func (d *frameDigest) write(f hpas.StreamFrame) {
	if f.Type == "event" {
		d.pending = append(d.pending, digestOf(f.Data))
		return
	}
	if f.Type == "done" {
		var set uint64
		for _, e := range d.pending {
			set += e
		}
		d.pending = append(d.pending[:0], set)
	}
	for _, e := range d.pending {
		binary.LittleEndian.PutUint64(d.scratch[:], e)
		d.h.Write(d.scratch[:])
	}
	d.pending = d.pending[:0]
	d.scratch[0] = f.Type[0] // window, event, done and gap differ in their first letter
	d.h.Write(d.scratch[:1])
	d.h.Write(f.Data)
}

func (d *frameDigest) sum() uint64 { return d.h.Sum64() }

// submitAndFollow is the service workloads' op: submit, follow the
// stream to done in wire form, and report submit → first frame.
func submitAndFollow(ctx context.Context, cl *hpasclient.Client, req api.JobRequest, tr *tracer, parent int) (api.JobStatus, streamed, error) {
	t0 := time.Now()
	sp := tr.child("submit", parent)
	st, err := cl.Submit(ctx, req)
	tr.end(sp)
	if err != nil {
		return st, streamed{}, fmt.Errorf("submit: %w", err)
	}
	sp = tr.child("stream", parent)
	got, err := followFrames(ctx, cl, st.ID, 0, t0)
	tr.end(sp)
	if err != nil {
		return st, got, fmt.Errorf("stream %s: %w", st.ID, err)
	}
	return st, got, nil
}

// dirBytes sums the sizes of dir's files.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
