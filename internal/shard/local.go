package shard

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"

	"hpas"
	"hpas/api"
	"hpas/serve"
)

// Local is the in-process Backend: a full job manager and the serve
// translation layer living in the router's own address space. It is
// the -local deployment shape of cmd/hpas-router and the fast path for
// tests — no sockets, no serialization, the same semantics.
//
// Kill simulates abrupt process death for failover tests: every
// subsequent operation fails with ErrShardDown and in-flight streams
// are cut mid-delivery, exactly as a crashed remote shard would cut
// them. The manager itself is left running (it shares the test's
// process); Close still releases it.
type Local struct {
	mgr *hpas.StreamManager
	srv *serve.Server

	mu     sync.Mutex
	dead   bool
	killed chan struct{} // closed by Kill
}

// NewLocal wraps an in-process manager and its serving layer as a
// shard. The server's BuildSpec and JobStatusOf are reused so routed
// and direct submissions validate, default, and render identically.
func NewLocal(mgr *hpas.StreamManager, srv *serve.Server) *Local {
	return &Local{mgr: mgr, srv: srv, killed: make(chan struct{})}
}

// Kill marks the shard dead. Safe to call more than once.
func (l *Local) Kill() {
	l.mu.Lock()
	if !l.dead {
		l.dead = true
		close(l.killed)
	}
	l.mu.Unlock()
}

func (l *Local) down() bool {
	select {
	case <-l.killed:
		return true
	default:
		return false
	}
}

// Submit implements Backend.
func (l *Local) Submit(ctx context.Context, req api.JobRequest, key string) (api.JobStatus, bool, error) {
	if l.down() {
		return api.JobStatus{}, false, ErrShardDown
	}
	spec, err := l.srv.BuildSpec(req)
	if err != nil {
		return api.JobStatus{}, false, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	spec.IdempotencyKey = key
	j, replayed, err := l.mgr.SubmitIdempotent(spec)
	if err != nil {
		// ErrStreamQueueFull and ErrStreamClosed pass through: the
		// router maps the former to 429 (client-paceable) and treats
		// only the latter as this shard being gone.
		return api.JobStatus{}, false, err
	}
	return serve.JobStatusOf(j), replayed, nil
}

// Get implements Backend.
func (l *Local) Get(ctx context.Context, id string) (api.JobStatus, error) {
	if l.down() {
		return api.JobStatus{}, ErrShardDown
	}
	j, ok := l.mgr.Get(id)
	if !ok {
		return api.JobStatus{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return serve.JobStatusOf(j), nil
}

// List implements Backend.
func (l *Local) List(ctx context.Context) ([]api.JobStatus, error) {
	if l.down() {
		return nil, ErrShardDown
	}
	jobs := l.mgr.Jobs()
	out := make([]api.JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, serve.JobStatusOf(j))
	}
	return out, nil
}

// Cancel implements Backend.
func (l *Local) Cancel(ctx context.Context, id string) (api.JobStatus, error) {
	if l.down() {
		return api.JobStatus{}, ErrShardDown
	}
	if err := l.mgr.Cancel(ctx, id); err != nil {
		if ctx.Err() != nil {
			return api.JobStatus{}, ctx.Err()
		}
		return api.JobStatus{}, fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	j, ok := l.mgr.Get(id)
	if !ok {
		return api.JobStatus{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return serve.JobStatusOf(j), nil
}

// Stream implements Backend. The follow is cut — mid-message, like a
// dropped TCP connection — if the shard is killed while streaming.
func (l *Local) Stream(ctx context.Context, id string, from int, fn func(hpas.StreamMessage) error) error {
	if l.down() {
		return ErrShardDown
	}
	j, ok := l.mgr.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	sctx, stop := l.watchKill(ctx)
	defer stop()
	sawDone := false
	for msg := range j.FollowFrom(sctx, from) {
		if l.down() {
			return ErrShardDown
		}
		if err := fn(msg); err != nil {
			return err
		}
		if msg.Type == "done" {
			sawDone = true
		}
	}
	return l.streamEnd(ctx, sawDone)
}

// StreamFrames implements Backend over the job's shared-frame follow:
// every frame's bytes are a sub-slice of the job's encoded log (one
// encode shared across followers) and are handed to fn verbatim. A
// one-frame look-ahead sets Frame.More when another frame is already
// queued, so the router's HTTP handler can coalesce its flushes.
func (l *Local) StreamFrames(ctx context.Context, id string, from int, fn func(hpas.StreamFrame) error) error {
	if l.down() {
		return ErrShardDown
	}
	j, ok := l.mgr.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	sctx, stop := l.watchKill(ctx)
	defer stop()
	sawDone := false
	ch := j.FollowFramesFrom(sctx, from)
	var pending hpas.StreamFrame
	havePending := false
	//lint:allow ctxloop exits when ch closes — FollowFramesFrom closes it on sctx cancellation
	for {
		var f hpas.StreamFrame
		if havePending {
			f, havePending = pending, false
		} else {
			var open bool
			if f, open = <-ch; !open {
				break
			}
		}
		select {
		case nf, open := <-ch:
			if open {
				pending, havePending = nf, true
				f.More = true
			}
		default:
		}
		if l.down() {
			return ErrShardDown
		}
		if err := fn(f); err != nil {
			return err
		}
		if f.Type == "done" {
			sawDone = true
		}
	}
	return l.streamEnd(ctx, sawDone)
}

// watchKill derives a follow context that is cancelled if the shard is
// killed mid-stream; stop releases the watcher.
func (l *Local) watchKill(ctx context.Context) (context.Context, func()) {
	sctx, cancel := context.WithCancel(ctx)
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-l.killed:
			cancel()
		case <-watchDone:
		}
	}()
	return sctx, func() {
		close(watchDone)
		cancel()
	}
}

// streamEnd classifies how a follow loop ended once its channel closed.
func (l *Local) streamEnd(ctx context.Context, sawDone bool) error {
	switch {
	case sawDone:
		return nil
	case l.down():
		return ErrShardDown
	case ctx.Err() != nil:
		return ctx.Err()
	default:
		// The follow ended without a terminal frame and without our
		// caller cancelling: the stream was interrupted shard-side.
		return ErrShardDown
	}
}

// Check implements Backend: the serve readiness report, failed when
// the shard is killed or closing.
func (l *Local) Check(ctx context.Context) (api.ShardHealth, error) {
	if l.down() {
		return api.ShardHealth{}, ErrShardDown
	}
	h, code := l.srv.Health()
	if code != http.StatusOK {
		return h, fmt.Errorf("%w: readyz %d (%s)", ErrShardDown, code, h.Status)
	}
	return h, nil
}

// Metrics implements Backend.
func (l *Local) Metrics(ctx context.Context) (hpas.StreamStats, error) {
	if l.down() {
		return hpas.StreamStats{}, ErrShardDown
	}
	return l.mgr.Stats(), nil
}

// Handoff implements Backend: the job's history is snapshotted and
// encoded into journal records, and the records from offset `from` on
// are handed to fn. Only terminal jobs hand off — a live job's history
// is still growing, and the adopter would import a torn prefix.
func (l *Local) Handoff(ctx context.Context, id string, from int, fn func(rec []byte) error) error {
	if l.down() {
		return ErrShardDown
	}
	j, ok := l.mgr.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	rj := j.EncodedSnapshot()
	if !rj.State.Final() {
		return fmt.Errorf("%w: job %q is not terminal; handoff serves finished history only", ErrBadRequest, id)
	}
	lines, err := hpas.EncodeStreamRecords(rj)
	if err != nil {
		return err
	}
	if from < 0 {
		return fmt.Errorf("%w: negative handoff offset %d", ErrBadRequest, from)
	}
	if from > len(lines) {
		from = len(lines)
	}
	for _, rec := range lines[from:] {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Adopt implements Backend: the record lines are replayed into a
// recovered-job value and imported into the manager, which dedupes on
// the history's idempotency key.
func (l *Local) Adopt(ctx context.Context, id string, recs [][]byte) (api.JobStatus, bool, error) {
	if l.down() {
		return api.JobStatus{}, false, ErrShardDown
	}
	body := bytes.Join(recs, []byte{'\n'})
	body = append(body, '\n')
	rj, _, err := hpas.ReplayStreamRecords(bytes.NewReader(body))
	if err != nil {
		return api.JobStatus{}, false, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	rj.ID = id
	j, deduped, err := l.mgr.Adopt(rj)
	if err != nil {
		return api.JobStatus{}, false, err
	}
	return serve.JobStatusOf(j), deduped, nil
}

// Close implements Backend, releasing the underlying manager.
func (l *Local) Close() error {
	l.mgr.Close()
	return nil
}
