package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"time"

	"hpas"
	"hpas/api"
	hpasclient "hpas/client"
	"hpas/internal/xrand"
	"hpas/serve"
)

// restartReplay is the read side of what routed-jobs writes and the
// delivery side of what live-detect produces: restart a server over a
// journal of finished jobs, replay them raw, replay some decoded,
// resume the rest near their end. It uses the journal as reads beside
// writes, the frame ring as replay beside live append, and the client
// raw beside decoded, so a gain for one use that costs the other shows.
var restartReplay = &workload{
	name:        "restart-replay",
	why:         "restart over a journal, then raw, decoded and resumed replays: journal reads, frame ring misses, client parse; starves sim",
	unit:        "frames",
	cycles:      124,
	climbs:      36,
	heapLimitMB: 256,
	setup:       func(cfg runConfig) (instance, error) { return setupReplay(cfg) },
	layers:      replayLayers,
}

const (
	replayJobs     = 16
	replayFrames   = 1001 // messages per journaled job, the done frame included
	replayDecoded  = 4    // jobs replayed through the decoding client
	replayResumeAt = 900
)

// replayInput draws the one job whose stream fills the journal from the
// seed: long enough, on four watched nodes at stride 1, to emit over a
// thousand messages.
func replayInput(seed uint64) api.JobRequest {
	rng := xrand.New(seed ^ 0x4e91a7)
	cpuFrom := 20 + rng.Intn(20)
	leakFrom := 150 + rng.Intn(30)
	return api.JobRequest{
		App:        "CoMD",
		Nodes:      4,
		Duration:   300,
		Seed:       rng.Uint64()>>16 | 1,
		Campaign:   fmt.Sprintf("cpuoccupy@%d-%d:%d,memleak@%d-%d", cpuFrom, cpuFrom+60+rng.Intn(30), 90+rng.Intn(11), leakFrom, leakFrom+60+rng.Intn(30)),
		WatchNodes: []int{0, 1, 2, 3},
		Window:     10,
		Stride:     1,
	}
}

// captureHistory runs the input job live on an in-memory manager and
// returns its history cut to exactly replayFrames messages: the first
// replayFrames-1 stream messages and the job's own done message.
func captureHistory(det *hpas.Detector, req api.JobRequest) (hpas.StreamRecoveredJob, error) {
	var none hpas.StreamRecoveredJob
	mgr := hpas.NewStreamManager(hpas.StreamConfig{})
	defer mgr.Close()
	spec, err := serve.New(mgr, det, serve.Config{}).BuildSpec(req)
	if err != nil {
		return none, err
	}
	job, err := mgr.Submit(spec)
	if err != nil {
		return none, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	for range job.Follow(ctx) {
	}
	snap := job.Snapshot()
	if snap.State != hpas.StreamJobDone {
		return none, fmt.Errorf("capture job ended %q: %s", snap.State, snap.Err)
	}
	if len(snap.Log) < replayFrames {
		return none, fmt.Errorf("capture job emitted %d messages, need %d", len(snap.Log), replayFrames)
	}
	done := snap.Log[len(snap.Log)-1]
	snap.Log = append(snap.Log[:replayFrames-1:replayFrames-1], done)
	return snap, nil
}

type replayInstance struct {
	det    *hpas.Detector
	fit    time.Duration
	dir    string
	ids    []string
	seed   uint64
	cycle  []step
	digest []uint64

	// node and cl are the server of the cycle in progress, opened by
	// the restart step and closed by the shutdown step.
	node      *serveNode
	cl        *hpasclient.Client
	restartAt time.Time

	// Pre-restart references: what the server that wrote the journal
	// delivered for each job, in full and from the resume point.
	fullWant   []uint64
	resumeWant []uint64
	records    int // journal records the restart recovers
}

func setupReplay(cfg runConfig) (*replayInstance, error) {
	p := &replayInstance{dir: filepath.Join(cfg.dataDir, "journal"), seed: cfg.seed}
	var err error
	if p.det, p.fit, err = trainDetector(cfg.seed, "CoMD"); err != nil {
		return nil, err
	}
	history, err := captureHistory(p.det, replayInput(cfg.seed))
	if err != nil {
		return nil, err
	}

	writer, err := startServe(p.det, p.dir)
	if err != nil {
		return nil, err
	}
	if err := errors.Join(p.writeHistories(writer, history), writer.close()); err != nil {
		return nil, fmt.Errorf("journaling the histories: %w", err)
	}
	p.records = replayJobs * (replayFrames + 2) // spec + messages + terminal state

	p.cycle = []step{
		{name: "restart", op: true, run: p.restart},
		{name: "replay-frames", op: true, midOp: true, work: replayJobs * replayFrames, run: p.replayFrames},
		{name: "replay-decode", op: true, work: replayDecoded * replayFrames, run: p.replayDecode},
		{name: "resume-900", op: true, work: replayJobs * (replayFrames - replayResumeAt), run: p.resume},
		{name: "shutdown", op: true, run: p.shutdown},
	}
	if p.digest, err = warmUp(p.cycle); err != nil {
		return nil, errors.Join(err, p.close())
	}
	return p, nil
}

// writeHistories adopts the history replayJobs times on the writing
// server — each adoption journals it under a fresh local id — and keeps
// what that server delivers for each job, in full and from the resume
// point, as the reference every later replay must equal.
func (p *replayInstance) writeHistories(writer *serveNode, history hpas.StreamRecoveredJob) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cl := newClient(writer.ts.URL, p.seed)
	for i := 0; i < replayJobs; i++ {
		history.Spec.IdempotencyKey = fmt.Sprintf("replay-%02d", i)
		job, _, err := writer.mgr.Adopt(history)
		if err != nil {
			return err
		}
		full, err := followFrames(ctx, cl, job.ID(), 0, time.Now())
		if err != nil {
			return err
		}
		tail, err := followFrames(ctx, cl, job.ID(), replayResumeAt, time.Now())
		if err != nil {
			return err
		}
		p.ids = append(p.ids, job.ID())
		p.fullWant = append(p.fullWant, full.digest)
		p.resumeWant = append(p.resumeWant, tail.digest)
	}
	if n := writer.mgr.Stats().JournalErrors; n != 0 {
		return fmt.Errorf("%d journal errors", n)
	}
	return nil
}

// restart is what a restarted hpas-serve -data-dir does before it
// listens: open the journal, recover it, reopen the jobs, serve.
func (p *replayInstance) restart(tr *tracer, parent int) (stepResult, error) {
	if p.node != nil {
		return stepResult{}, errors.New("previous cycle's server still open")
	}
	p.restartAt = time.Now()
	node, err := startServe(p.det, p.dir)
	if err != nil {
		return stepResult{}, err
	}
	p.node = node
	p.cl = newClient(node.ts.URL, p.seed)
	if got := node.mgr.Stats().JobsSubmitted; got != replayJobs {
		return stepResult{}, fmt.Errorf("recovered %d jobs, want %d", got, replayJobs)
	}
	return stepResult{digest: uint64(replayJobs)}, nil
}

// replayFrames replays every job in wire form and compares each with
// what the writing server delivered before the restart.
func (p *replayInstance) replayFrames(tr *tracer, parent int) (stepResult, error) {
	return p.replayAll(tr, parent, 0, replayFrames, p.fullWant, true)
}

// resume replays every job from the resume point.
func (p *replayInstance) resume(tr *tracer, parent int) (stepResult, error) {
	return p.replayAll(tr, parent, replayResumeAt, replayFrames-replayResumeAt, p.resumeWant, false)
}

func (p *replayInstance) replayAll(tr *tracer, parent, from, frames int, want []uint64, first bool) (stepResult, error) {
	if p.node == nil {
		return stepResult{}, errors.New("no server: the restart step failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var res stepResult
	sum := fnv.New64a()
	for i, id := range p.ids {
		sp := tr.child("stream", parent)
		got, err := followFrames(ctx, p.cl, id, from, p.restartAt)
		tr.end(sp)
		if err != nil {
			return stepResult{}, fmt.Errorf("job %s from %d: %w", id, from, err)
		}
		if got.frames != frames {
			return stepResult{}, fmt.Errorf("job %s from %d: %d frames, want %d", id, from, got.frames, frames)
		}
		if got.digest != want[i] {
			return stepResult{}, fmt.Errorf("job %s from %d: replay differs from the pre-restart stream", id, from)
		}
		if first && i == 0 {
			res.first = got.first
		}
		sum.Write(binary.LittleEndian.AppendUint64(nil, got.digest))
	}
	res.digest = sum.Sum64()
	return res, nil
}

// replayDecode replays the first few jobs through the decoding client.
func (p *replayInstance) replayDecode(tr *tracer, parent int) (stepResult, error) {
	if p.node == nil {
		return stepResult{}, errors.New("no server: the restart step failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	sum := fnv.New64a()
	var scratch [8]byte
	for _, id := range p.ids[:replayDecoded] {
		next, done := 0, false
		sp := tr.child("stream-decoded", parent)
		err := p.cl.Stream(ctx, id, 0, func(m hpas.StreamMessage) error {
			if m.Seq != next {
				return fmt.Errorf("message seq %d, want %d", m.Seq, next)
			}
			next++
			done = m.Type == "done"
			sum.Write([]byte(m.Type))
			if m.Window != nil {
				binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(m.Window.To+m.Window.Confidence))
				sum.Write(scratch[:])
				sum.Write([]byte(m.Window.Class))
			}
			return nil
		})
		tr.end(sp)
		if err != nil {
			return stepResult{}, fmt.Errorf("job %s decoded: %w", id, err)
		}
		if next != replayFrames || !done {
			return stepResult{}, fmt.Errorf("job %s decoded: %d messages (done %v), want %d", id, next, done, replayFrames)
		}
	}
	return stepResult{digest: sum.Sum64()}, nil
}

func (p *replayInstance) shutdown(tr *tracer, parent int) (stepResult, error) {
	if p.node == nil {
		return stepResult{}, errors.New("no server: the restart step failed")
	}
	err := p.node.close()
	p.node, p.cl = nil, nil
	return stepResult{digest: 1}, err
}

func (p *replayInstance) steps() []step  { return p.cycle }
func (p *replayInstance) want() []uint64 { return p.digest }

// finish has nothing left to check: every replay was compared with the
// pre-restart stream as it arrived.
func (p *replayInstance) finish(int) []string { return nil }

func (p *replayInstance) close() error {
	if p.node == nil {
		return nil
	}
	err := p.node.close()
	p.node = nil
	return err
}

// replayLayers climbs each step of the restart cycle from the lowest
// public entry point that does its work: the journal alone under the
// manager's reopen under the served restart; in-process frame follows
// under HTTP ones; raw HTTP follows under decoded ones. The rungs of a
// repeat share one restarted server, as the cycle's steps do.
func replayLayers(in layerInput) (t *layerTable, err error) {
	p := in.inst.(*replayInstance)
	t = newLayerTable()
	ctx, cancel := context.WithTimeout(context.Background(), guard)
	defer cancel()

	var (
		node *serveNode // the repeat's server, opened by the top restart rung
		cl   *hpasclient.Client
		jn   *hpas.StreamJournal
		mgr  *hpas.StreamManager
	)
	closeLower := func() error {
		if mgr != nil {
			mgr.Close()
			mgr = nil
		}
		err := jn.Close()
		jn = nil
		return err
	}
	recoverJournal := func() ([]hpas.StreamRecoveredJob, error) {
		var err error
		if jn, err = hpas.OpenStreamJournal(p.dir); err != nil {
			return nil, err
		}
		recovered, err := jn.Recover()
		if err == nil && len(recovered) != replayJobs {
			err = fmt.Errorf("recovered %d jobs, want %d", len(recovered), replayJobs)
		}
		return recovered, err
	}
	inProcess := func(ids []string, from int) error {
		for _, id := range ids {
			job, ok := node.mgr.Get(id)
			if !ok {
				return fmt.Errorf("no job %s", id)
			}
			for range job.FollowFramesFrom(ctx, from) {
			}
		}
		return nil
	}
	overHTTP := func(ids []string, from int) error {
		for _, id := range ids {
			if _, err := followFrames(ctx, cl, id, from, time.Now()); err != nil {
				return err
			}
		}
		return nil
	}
	decoded := p.ids[:replayDecoded]

	groups := []ladderGroup{
		{name: "restart", scale: 1, rungs: []rung{
			{name: "journal-recover", layer: "journal", after: closeLower, run: func() error {
				_, err := recoverJournal()
				return err
			}},
			{name: "manager-reopen", layer: "stream", after: closeLower, run: func() error {
				recovered, err := recoverJournal()
				if err != nil {
					return err
				}
				mgr = hpas.NewStreamManager(hpas.StreamConfig{Workers: 2, Queue: 16, Store: jn})
				return mgr.Reopen(recovered)
			}},
			{name: "restart", layer: "serve", run: func() error {
				var err error
				if node, err = startServe(p.det, p.dir); err != nil {
					return err
				}
				cl = newClient(node.ts.URL, p.seed)
				return nil
			}},
		}},
		{name: "replay-frames", scale: 1, rungs: []rung{
			{name: "frames-in-process", layer: "stream", run: func() error { return inProcess(p.ids, 0) }},
			{name: "frames-http", layer: "serve", run: func() error { return overHTTP(p.ids, 0) }},
		}},
		{name: "replay-decode", scale: 1, rungs: []rung{
			{name: "decode-in-process", layer: "stream", run: func() error { return inProcess(decoded, 0) }},
			{name: "decode-http-raw", layer: "serve", run: func() error { return overHTTP(decoded, 0) }},
			{name: "decode-http", layer: "client", run: func() error {
				for _, id := range decoded {
					if err := cl.Stream(ctx, id, 0, func(hpas.StreamMessage) error { return nil }); err != nil {
						return err
					}
				}
				return nil
			}},
		}},
		{name: "resume-900", scale: 1, rungs: []rung{
			{name: "resume-in-process", layer: "stream", run: func() error { return inProcess(p.ids, replayResumeAt) }},
			{name: "resume-http", layer: "serve", run: func() error { return overHTTP(p.ids, replayResumeAt) }},
		}},
		{name: "shutdown", scale: 1, rungs: []rung{
			{name: "shutdown", layer: "serve", run: func() error {
				err := node.close()
				node = nil
				return err
			}},
		}},
	}
	if err := t.climb(groups, in.repeats, in.tr, in.cycles); err != nil {
		if node != nil {
			err = errors.Join(err, node.close())
		}
		return nil, err
	}
	t.finishLadder()

	recoverMS := t.rungMS("journal-recover")
	t.set("journal.recover_us_per_record", recoverMS*1e3/float64(p.records))
	t.set("stream.reopen_us_per_record", (t.rungMS("manager-reopen")-recoverMS)*1e3/float64(p.records))
	t.set("stream.frame_encode_us", t.rungMS("frames-in-process")*1e3/float64(replayJobs*replayFrames))
	t.set("serve.http_us_per_op", (t.rungMS("frames-http")-t.rungMS("frames-in-process"))*1e3/replayJobs)
	t.set("ml.fit_forest_ms", ms(p.fit))
	bytes, err := dirBytes(p.dir)
	if err != nil {
		return nil, err
	}
	t.set("journal.bytes_per_job", float64(bytes)/replayJobs)

	// Counters and direct calls need a live server over the journal.
	if node, err = startServe(p.det, p.dir); err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, node.close()) }()
	cl = newClient(node.ts.URL, p.seed)
	if err := overHTTP(p.ids, 0); err != nil {
		return nil, err
	}
	if err := overHTTP(p.ids, replayResumeAt); err != nil {
		return nil, err
	}
	st := node.mgr.Stats()
	t.set("stream.frames_encoded", float64(st.FramesEncoded))
	t.set("stream.frame_cache_hits", float64(st.FrameCacheHits))
	t.set("journal.errors", float64(st.JournalErrors))
	t.set("client.retries", float64(node.requests.Load()-2*replayJobs))
	submitUS, streamUS, body, frames, err := serveDirect(node, p.ids[0])
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
	appendUS, syncUS, err := journalDirect(filepath.Join(in.cfg.dataDir, "direct-journal"))
	if err != nil {
		return nil, err
	}
	t.set("journal.append_us", appendUS)
	t.set("journal.state_sync_us", syncUS)
	return t, nil
}
