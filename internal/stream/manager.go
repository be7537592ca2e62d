package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hpas/internal/core"
)

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle: queued → running → done | failed | cancelled.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Final reports whether the state is terminal.
func (s JobState) Final() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// ErrQueueFull is returned by Submit when the pending-job queue is at
// capacity; callers should retry later (HTTP 503 territory).
var ErrQueueFull = errors.New("stream: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("stream: manager closed")

// JobSpec describes one submission: a campaign to simulate and the
// detection pipeline to stream it through. A spec with no phases runs
// Campaign.Base as a plain (phase-less) run.
type JobSpec struct {
	Campaign core.Campaign
	Pipeline PipelineConfig // Emit is owned by the manager and ignored

	// IdempotencyKey, when non-empty, makes submission retry-safe: a
	// second Submit carrying the same key returns the job the first
	// one created — whatever state it has reached, including terminal
	// — instead of starting a duplicate. The key is part of the spec,
	// so the journal's Create record carries it and dedupe survives a
	// restart via Reopen. Keys live as long as their job (the manager
	// holds every job for its lifetime anyway), so a retry arriving
	// arbitrarily late still finds the original.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// Job is one tracked submission. All accessors are safe for concurrent
// use with the worker executing the job. A job keeps its spec, its
// lifecycle and its message log — everything a stream replay needs —
// and nothing of the simulation that produced them: the run's cluster
// and metric traces are garbage once the worker returns. The log is
// kept encoded (EncodedLog): each message is encoded once, on append,
// and every frame a follower receives is a sub-slice of it.
type Job struct {
	id          string
	spec        JobSpec
	followLimit int           // per-follower lag bound (Config.FollowLimit)
	gaps        *atomic.Int64 // manager's dropped-messages counter

	framesEncoded *atomic.Int64 // manager's encoded-message counter; may be nil
	frameHits     *atomic.Int64 // manager's log-frame counter; may be nil

	mu       sync.Mutex
	state    JobState
	err      error
	log      EncodedLog
	events   []Event // anomaly events, maintained incrementally on append
	cancel   context.CancelFunc
	created  time.Time
	started  time.Time
	finished time.Time

	// updated wakes the followers and Cancel calls blocked on the job:
	// made by the first of them to block, closed and cleared by the next
	// append or state change. Nil while nobody waits, so a finished job
	// holds none.
	updated chan struct{}
}

// ID returns the job's manager-assigned identifier (e.g. "j0001").
func (j *Job) ID() string { return j.id }

// State returns the job's current state and, for failed jobs, its error.
func (j *Job) State() (JobState, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.err
}

// Times returns the submission, start, and finish wall-clock times;
// zero values mean the phase has not been reached.
func (j *Job) Times() (created, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.created, j.started, j.finished
}

// Messages returns a snapshot of the stream log so far, decoded.
func (j *Job) Messages() []Message {
	j.mu.Lock()
	log := j.log
	j.mu.Unlock()
	return log.Messages()
}

// Events returns the anomaly events emitted so far. The slice is
// maintained incrementally on append, so this is O(events) rather than
// a rescan of the whole message log.
func (j *Job) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// Snapshot copies the job's durable identity — spec, lifecycle, and
// full message log, decoded — into a RecoveredJob, the same shape
// journal recovery produces.
func (j *Job) Snapshot() RecoveredJob {
	r := j.EncodedSnapshot()
	r.Log, r.Encoded = r.Encoded.Messages(), nil
	return r
}

// EncodedSnapshot is Snapshot with the log left encoded: Encoded shares
// the job's memory, which never changes, and Log is nil. It is the
// export half of journal handoff: the snapshot of a terminal job
// round-trips through journal.EncodeRecords/Replay into a
// byte-identical replay at the adopting shard.
func (j *Job) EncodedSnapshot() RecoveredJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := RecoveredJob{
		ID:       j.id,
		Spec:     j.spec,
		State:    j.state,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
	if j.err != nil {
		r.Err = j.err.Error()
	}
	log := j.log.clip()
	r.Encoded = &log
	return r
}

// DefaultFollowLimit is the per-follower lag bound used when
// Config.FollowLimit is zero; it also bounds each replay copy, so a
// follower's memory is O(limit) regardless of log length.
const DefaultFollowLimit = 256

// Follow returns a channel that replays the job's stream from the
// beginning and then follows it live. The channel closes once the final
// "done" message has been delivered, or when ctx is cancelled. Multiple
// followers may be attached at any point of the job's life, including
// after completion. Jobs restored from a Store replay byte-identically
// to the live run they record.
//
// Each delivered message carries its log index in Seq. A follower of a
// live (not yet finished) job that falls more than the manager's
// FollowLimit behind the log head is skipped forward (drop-oldest) and
// receives a synthetic "gap" message naming how many messages were
// dropped, so a slow consumer bounds its lag instead of growing it
// without limit. Finished jobs always replay in full — there is no
// producer to fall behind — in bounded chunks.
func (j *Job) Follow(ctx context.Context) <-chan Message {
	return j.FollowFrom(ctx, 0)
}

// FollowFrom is Follow starting at log index from (clamped at 0); it
// backs resumption — e.g. an SSE client's Last-Event-ID — without
// replaying and discarding the prefix. Each message is decoded from the
// job's encoded log as it is delivered.
func (j *Job) FollowFrom(ctx context.Context, from int) <-chan Message {
	ch := make(chan Message, 16)
	go func() {
		defer close(ch)
		var d MsgDecoder
		j.follow(ctx, from, func(f Frame) bool {
			m, err := d.decodeOwned(f.Data)
			if err != nil {
				return false
			}
			m.Seq = f.Seq
			select {
			case ch <- m:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return ch
}

// follow drives the shared replay/follow loop behind FollowFrom and
// FollowFramesFrom: it walks the log from the given index in bounded
// window() chunks, delivers each message as a frame whose Data is a
// sub-slice of the log, synthesizes per-follower "gap" frames when
// drop-oldest skips it forward, and blocks on the job's updated channel
// (or ctx) when caught up. deliver is called for every frame in order
// and returns false to stop early.
func (j *Job) follow(ctx context.Context, from int, deliver func(Frame) bool) {
	if from < 0 {
		from = 0
	}
	j.mu.Lock()
	if n := j.log.Len(); from > n { // resume index beyond the log: start at head
		from = n
	}
	j.mu.Unlock()
	i := from
	for {
		log, n, skipped, done, wait := j.window(i)
		if skipped > 0 {
			i += skipped
			if j.gaps != nil {
				j.gaps.Add(int64(skipped))
			}
			gap, err := AppendMsg(nil, &Message{Type: "gap", Dropped: skipped})
			if err != nil {
				return
			}
			j.countEncoded()
			if !deliver(Frame{Seq: i - 1, Type: "gap", Data: gap}) {
				return
			}
		}
		for end := i + n; i < end; i++ {
			data := log.Frame(i)
			if !deliver(Frame{Seq: i, Type: frameType(data), Data: data}) {
				return
			}
		}
		if done {
			return
		}
		if wait != nil {
			select {
			case <-wait:
			case <-ctx.Done():
				return
			}
		}
	}
}

// window returns the log as of now with the bounded chunk of it to
// deliver next: n messages starting at from+skipped, at most the follow
// limit per call, after skipping ahead (drop-oldest) when a live job's
// head has outrun the follower by more than the limit. done reports
// stream completion at the end of the chunk. When there is nothing to
// deliver and the stream is not done, wait is the channel closed on the
// next log change, made here if nobody waits yet; otherwise it is nil.
// The returned log shares the job's memory: the messages it holds never
// change, so the caller reads them outside j.mu.
func (j *Job) window(from int) (log EncodedLog, n, skipped int, done bool, wait chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	limit := j.followLimit
	if limit == 0 {
		limit = DefaultFollowLimit
	}
	chunk := limit
	if chunk < 0 { // dropping disabled; chunks stay bounded anyway
		chunk = DefaultFollowLimit
	}
	head := j.log.Len()
	if limit > 0 && !j.state.Final() && head-from > limit {
		skipped = head - limit - from
		from += skipped
	}
	n = min(head-from, chunk)
	done = j.state.Final() && from+n == head
	if n == 0 && skipped == 0 && !done {
		wait = j.waitLocked()
	}
	return j.log, n, skipped, done, wait
}

// waitLocked returns the channel the next append or state change
// closes, making it if nobody waits yet. Callers hold j.mu.
func (j *Job) waitLocked() chan struct{} {
	if j.updated == nil {
		j.updated = make(chan struct{})
	}
	return j.updated
}

// wakeLocked wakes every follower and Cancel blocked on the job.
// Callers hold j.mu.
func (j *Job) wakeLocked() {
	if j.updated != nil {
		close(j.updated)
		j.updated = nil
	}
}

// appendLocked encodes a stream message onto the log, maintains the
// event index, and wakes followers. Callers hold j.mu; the returned seq
// is the message's log index, for journaling after the lock is
// released. A message that does not encode is not appended.
func (j *Job) appendLocked(m *Message) (seq int, err error) {
	if err := j.log.AddMsg(m); err != nil {
		return 0, err
	}
	j.countEncoded()
	if m.Type == "event" && m.Event != nil {
		j.events = append(j.events, *m.Event)
	}
	j.wakeLocked()
	return j.log.Len() - 1, nil
}

// countEncoded counts one encoded message on the manager.
func (j *Job) countEncoded() {
	if j.framesEncoded != nil {
		j.framesEncoded.Add(1)
	}
}

// Config sizes the manager.
type Config struct {
	// Workers is the concurrent-job limit (default 2).
	Workers int
	// Queue is the pending-submission capacity beyond the jobs already
	// running (default 16). Submit fails with ErrQueueFull beyond it.
	// Cancelled-while-queued jobs release their slot immediately.
	Queue int
	// Store, when non-nil, receives every job record for durable
	// replay across restarts (see internal/stream/journal). Nil keeps
	// the manager in-memory only. Wrap it in a ResilientStore to
	// survive flaky or dead journal media.
	Store Store
	// FollowLimit bounds how far a follower of a live job may lag
	// behind the log head before drop-oldest kicks in and a "gap"
	// message is delivered (default DefaultFollowLimit). Negative
	// disables dropping (replay copies stay bounded regardless).
	FollowLimit int
}

// Manager runs submitted jobs on a bounded worker pool and tracks their
// lifecycle. Create with NewManager; Close releases the pool. When a
// Store is configured, pass the store's recovered jobs to Reopen before
// accepting traffic so prior history is served again.
type Manager struct {
	cfg       Config
	ctx       context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup
	started   time.Time
	store     Store

	mu     sync.Mutex
	cond   *sync.Cond // signalled on queue growth and on Close
	pendq  []*Job     // FIFO; may hold finalized (cancelled-while-queued) jobs
	closed bool
	nextID int
	jobs   map[string]*Job
	order  []string
	byKey  map[string]*Job // idempotency key → job, populated by Submit and Reopen

	// npending counts queued, not-yet-finalized jobs: the admission
	// quantity behind ErrQueueFull. A job leaves it when a worker claims
	// it or when it is cancelled while still queued — not when its
	// (possibly stale) pendq entry is drained.
	npending atomic.Int64

	tel         Telemetry
	dedup       atomic.Int64 // submissions answered by an existing keyed job
	adopted     atomic.Int64 // histories imported from another shard via Adopt
	running     atomic.Int64
	done        atomic.Int64
	failed      atomic.Int64
	cancelled   atomic.Int64
	storeErrs   atomic.Int64
	gapsDropped atomic.Int64 // messages skipped past slow followers
	panics      atomic.Int64 // pipeline panics recovered in run
	framesEnc   atomic.Int64 // messages encoded (Stats.FramesEncoded)
	frameHits   atomic.Int64 // frames served from a job's log (Stats.FrameCacheHits)
}

// NewManager starts a worker pool with the given configuration.
func NewManager(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:       cfg,
		ctx:       ctx,
		cancelAll: cancel,
		started:   time.Now(),
		store:     cfg.Store,
		jobs:      make(map[string]*Job),
		byKey:     make(map[string]*Job),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates and enqueues a job, returning it in JobQueued state.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	j, _, err := m.SubmitIdempotent(spec)
	return j, err
}

// SubmitIdempotent is Submit with duplicate detection surfaced: when
// spec.IdempotencyKey names a job this manager already knows — created
// by an earlier Submit or recovered from the journal by Reopen —
// the existing job is returned with deduped true and nothing new is
// enqueued. Two concurrent submissions with the same key yield one
// job: the key is reserved under the manager lock before the spec is
// journaled, so the race has a single winner.
func (m *Manager) SubmitIdempotent(spec JobSpec) (j *Job, deduped bool, err error) {
	if spec.Campaign.Base.Cluster.Nodes == 0 {
		return nil, false, fmt.Errorf("stream: submission has no cluster")
	}
	// Fail configuration errors at submit time, not inside a worker.
	probe := spec.Pipeline
	probe.Emit = func(Message) {}
	if _, err := NewPipeline(probe); err != nil {
		return nil, false, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false, ErrClosed
	}
	if spec.IdempotencyKey != "" {
		if prior, ok := m.byKey[spec.IdempotencyKey]; ok {
			m.dedup.Add(1)
			m.mu.Unlock()
			return prior, true, nil
		}
	}
	if int(m.npending.Load()) >= m.cfg.Queue {
		m.mu.Unlock()
		return nil, false, ErrQueueFull
	}
	m.nextID++
	j = m.newJob(fmt.Sprintf("j%04d", m.nextID), spec, JobQueued, time.Now())
	if spec.IdempotencyKey != "" {
		// Reserve the key now, while still under the lock: a concurrent
		// same-key submission racing the Create write below must find
		// this job, not create its own.
		m.byKey[spec.IdempotencyKey] = j
	}
	m.npending.Add(1) // reserve the queue slot while Create lands
	m.mu.Unlock()

	// Journal Create before the job becomes visible to workers and
	// Cancel, so the spec record is always the job's first — a fast
	// Cancel can no longer journal its done/state records ahead of it.
	if m.store != nil {
		if err := m.store.Create(j.id, j.created, spec); err != nil {
			m.storeErrs.Add(1)
		}
	}

	m.mu.Lock()
	if m.closed {
		// Closed while journaling Create: finalize the orphan record so
		// a restart does not resurrect it as an interrupted job, and
		// finalize the job itself — a concurrent same-key submitter may
		// already hold it and must observe a terminal state.
		m.npending.Add(-1)
		delete(m.byKey, spec.IdempotencyKey)
		m.mu.Unlock()
		now := time.Now()
		done := Message{Type: "done", State: JobCancelled}
		j.mu.Lock()
		j.state = JobCancelled
		j.finished = now
		seq, err := j.appendLocked(&done)
		j.mu.Unlock()
		if err == nil {
			m.journalAppend(j.id, seq, done)
		}
		m.journalState(j.id, JobCancelled, "", now)
		return nil, false, ErrClosed
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.pendq = append(m.pendq, j)
	m.cond.Signal()
	m.mu.Unlock()
	return j, false, nil
}

// newJob builds one of this manager's jobs.
func (m *Manager) newJob(id string, spec JobSpec, state JobState, created time.Time) *Job {
	return &Job{
		id:            id,
		spec:          spec,
		followLimit:   m.cfg.FollowLimit,
		gaps:          &m.gapsDropped,
		framesEncoded: &m.framesEnc,
		frameHits:     &m.frameHits,
		state:         state,
		created:       created,
	}
}

// encodedLog returns r's log in encoded form: r.Encoded itself, with
// no room to grow in place, when recovery supplied it; otherwise r.Log
// encoded here and counted.
func (m *Manager) encodedLog(r RecoveredJob) (EncodedLog, error) {
	if r.Encoded != nil {
		return r.Encoded.clip(), nil
	}
	log, err := EncodeLog(r.Log)
	if err != nil {
		return EncodedLog{}, fmt.Errorf("stream: job %q: %w", r.ID, err)
	}
	m.framesEnc.Add(int64(len(r.Log)))
	return *log, nil
}

// restoreLocked registers the history r as job id with log as its
// encoded message log, kept in exactly sized memory: aliased when it
// already is, copied otherwise. A non-terminal history is finalized as
// JobFailed with cause, its done message appended to the log;
// finalized reports that. The events index is rebuilt from the
// log's event messages. The idempotency key goes to the first job that
// registers it. Caller holds m.mu.
func (m *Manager) restoreLocked(id string, r RecoveredJob, log EncodedLog, cause error) (j *Job, finalized bool) {
	j = m.newJob(id, r.Spec, r.State, r.Created)
	j.log = log
	j.started, j.finished = r.Started, r.Finished
	if r.Err != "" {
		j.err = errors.New(r.Err)
	}
	if !j.state.Final() {
		j.state, j.err, j.finished = JobFailed, cause, time.Now()
		// A done message with a plain error always encodes.
		finalized = j.log.AddMsg(&Message{Type: "done", State: JobFailed, Error: cause.Error()}) == nil
		j.countEncoded()
	}
	j.log = j.log.compact()
	var d MsgDecoder
	for i := 0; i < j.log.Len(); i++ {
		if f := j.log.Frame(i); frameType(f) == "event" {
			if msg, err := d.decodeOwned(f); err == nil && msg.Event != nil {
				j.events = append(j.events, *msg.Event)
			}
		}
	}
	switch j.state {
	case JobDone:
		m.done.Add(1)
	case JobFailed:
		m.failed.Add(1)
	case JobCancelled:
		m.cancelled.Add(1)
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	if k := r.Spec.IdempotencyKey; k != "" {
		if _, taken := m.byKey[k]; !taken {
			m.byKey[k] = j
		}
	}
	return j, finalized
}

// Reopen restores jobs recovered from a Store (journal.Recover) into the
// manager. Recovered jobs in a terminal state keep it, with their full
// message log and event index; jobs whose journal ended mid-run — the
// previous process was killed — are finalized as JobFailed with
// ErrInterrupted, and that transition is journaled so the next restart
// sees it directly. Future submissions continue after the highest
// recovered job ID. Call before accepting new submissions.
func (m *Manager) Reopen(recovered []RecoveredJob) error {
	var fixups []*Job // finalized here; terminal, so their logs no longer change

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	for _, r := range recovered {
		if r.ID == "" {
			continue
		}
		if _, dup := m.jobs[r.ID]; dup {
			m.mu.Unlock()
			return fmt.Errorf("stream: duplicate recovered job %q", r.ID)
		}
		log, err := m.encodedLog(r)
		if err != nil {
			m.mu.Unlock()
			return err
		}
		// Recovered jobs arrive in ID order, so a duplicate key in a hand-edited journal maps
		// to the oldest job — matching what live dedupe would have
		// produced.
		j, finalized := m.restoreLocked(r.ID, r, log, ErrInterrupted)
		if finalized {
			fixups = append(fixups, j)
		}
		var n int
		if _, err := fmt.Sscanf(j.id, "j%d", &n); err == nil && n > m.nextID {
			m.nextID = n
		}
	}
	m.mu.Unlock()

	for _, j := range fixups {
		m.journalAppend(j.id, j.log.Len()-1, Message{Type: "done", State: JobFailed, Error: ErrInterrupted.Error()})
		m.journalState(j.id, JobFailed, ErrInterrupted.Error(), j.finished)
	}
	return nil
}

// Adopt imports one job's history — typically a RecoveredJob decoded
// from another shard's journal handoff (journal.Replay) — into a live
// manager. Unlike Reopen it runs at any point of the manager's life,
// assigns the job a fresh local ID (handoff IDs come from another
// manager's namespace and may collide with ours), and dedupes on the
// spec's idempotency key: if the key already names a local job — e.g.
// failover already re-placed the queued job here before its history
// arrived — that job is returned with deduped true and nothing is
// imported. A non-terminal history is finalized as JobFailed with
// ErrShardLost (its simulation state died with the source shard), and
// the adopted history is journaled locally so it survives this
// manager's own restarts.
func (m *Manager) Adopt(r RecoveredJob) (j *Job, deduped bool, err error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false, ErrClosed
	}
	if k := r.Spec.IdempotencyKey; k != "" {
		if prior, ok := m.byKey[k]; ok {
			m.dedup.Add(1)
			m.mu.Unlock()
			return prior, true, nil
		}
	}
	log, err := m.encodedLog(r)
	if err != nil {
		m.mu.Unlock()
		return nil, false, err
	}
	m.nextID++
	// A terminal fixup lands in the job's log, never in r's, so the
	// full-log journal pass below records it too — the next restart
	// replays it as-is.
	j, _ = m.restoreLocked(fmt.Sprintf("j%04d", m.nextID), r, log, ErrShardLost)
	m.adopted.Add(1)
	log, state, errText, finished := j.log, j.state, "", j.finished
	if j.err != nil {
		errText = j.err.Error()
	}
	m.mu.Unlock()

	// Journal the adopted history under the new local ID — outside the
	// manager lock; the job is already visible and its log immutable
	// (terminal jobs take no appends).
	if m.store != nil {
		if err := m.store.Create(j.id, r.Created, r.Spec); err != nil {
			m.storeErrs.Add(1)
		}
		for seq, msg := range log.Messages() {
			m.journalAppend(j.id, seq, msg)
		}
		m.journalState(j.id, state, errText, finished)
	}
	return j, false, nil
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every tracked job in submission order (recovered jobs
// first, in their original order).
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel aborts the job and returns once it is terminal: a queued job
// is finalized immediately and its queue slot released, a running job
// has its context cancelled and is waited for until its worker
// finalizes it (the simulation notices within one tick). Cancelling a
// finished job is a no-op. The wait ends early with ctx's error when
// ctx is done first.
func (m *Manager) Cancel(ctx context.Context, id string) error {
	j, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("stream: no job %q", id)
	}
	j.mu.Lock()
	switch {
	case j.state == JobQueued:
		done := Message{Type: "done", State: JobCancelled}
		j.state = JobCancelled
		j.finished = time.Now()
		seq, err := j.appendLocked(&done)
		fin := j.finished
		m.cancelled.Add(1)
		m.npending.Add(-1) // the stale pendq entry no longer holds a slot
		j.mu.Unlock()
		if err == nil {
			m.journalAppend(id, seq, done)
		}
		m.journalState(id, JobCancelled, "", fin)
		return nil
	case j.state == JobRunning && j.cancel != nil:
		j.cancel()
	}
	for !j.state.Final() {
		wait := j.waitLocked()
		j.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return ctx.Err()
		}
		j.mu.Lock()
	}
	j.mu.Unlock()
	return nil
}

// Ready reports whether the manager accepts submissions (false after
// Close); hpas-serve's /v1/readyz probes it.
func (m *Manager) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed
}

// Drain blocks until the manager has no running or queued jobs, or ctx
// ends (returning its error). It does not stop new submissions —
// callers implementing drain-then-cancel shutdown should stop their
// listener first, then Drain under the shutdown budget, then Close.
func (m *Manager) Drain(ctx context.Context) error {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		if m.running.Load() == 0 && m.npending.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Close stops accepting submissions, cancels running jobs, and waits
// for the workers to exit. Workers drain jobs still queued (each
// finishes cancelled under the closed context). The Store, if any, is
// not closed — the caller owns its lifecycle.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.cancelAll()
	m.wg.Wait()
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pendq) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.pendq) == 0 {
			m.mu.Unlock()
			return
		}
		j := m.pendq[0]
		m.pendq[0] = nil
		m.pendq = m.pendq[1:]
		m.mu.Unlock()
		m.run(j)
	}
}

// run executes one job end to end on the calling worker goroutine.
// The entire job — simulation, monitor tap, and detection pipeline —
// executes synchronously on this goroutine, so the deferred recover
// catches any panic under it: the job finalizes as JobFailed with the
// panic text and the worker returns to the pool instead of dying with
// it (a panicking pipeline must not shrink the pool).
func (m *Manager) run(j *Job) {
	ctx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			m.panics.Add(1)
			m.finish(j, fmt.Errorf("stream: pipeline panic: %v", r))
		}
	}()

	j.mu.Lock()
	if j.state != JobQueued { // cancelled while queued: slot already released
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	j.wakeLocked()
	started := j.started
	j.mu.Unlock()
	m.npending.Add(-1)
	m.journalState(j.id, JobRunning, "", started)
	m.running.Add(1)
	defer m.running.Add(-1)

	pcfg := j.spec.Pipeline
	pcfg.Emit = func(msg Message) { m.append(j, msg) }
	pcfg.Telemetry = &m.tel
	pipe, err := NewPipeline(pcfg)
	if err != nil {
		m.finish(j, err)
		return
	}

	camp := j.spec.Campaign
	camp.Base.Tap = pipe.Observe

	// The run's result (cluster, nodes, every trace set) is dropped here:
	// the stream is the job's output, and a finished job must not pin
	// its simulation.
	if len(camp.Phases) > 0 {
		_, err = camp.RunContext(ctx)
	} else {
		_, err = core.RunContext(ctx, camp.Base)
	}
	if err == nil {
		pipe.Flush()
		err = pipe.Err()
	}
	m.finish(j, err)
}

// append encodes a stream message onto the job's log and journals it.
// msg is lent by the pipeline (see PipelineConfig.Emit): it is encoded,
// its event copied into the index and the journal record written before
// append returns. A message that does not encode (a NaN or infinite
// float) fails the job; nothing is appended once the job is terminal.
func (m *Manager) append(j *Job, msg Message) {
	j.mu.Lock()
	if j.state.Final() {
		j.mu.Unlock()
		return
	}
	seq, err := j.appendLocked(&msg)
	stop := j.cancel
	j.mu.Unlock()
	if err != nil {
		m.finish(j, fmt.Errorf("stream: encoding %s message: %w", msg.Type, err))
		if stop != nil {
			stop()
		}
		return
	}
	m.journalAppend(j.id, seq, msg)
}

// finish records the job's terminal state, appends the final stream
// message, and journals both.
func (m *Manager) finish(j *Job, err error) {
	now := time.Now()
	var msg Message
	j.mu.Lock()
	if j.state.Final() { // already finalized (e.g. panic after finish)
		j.mu.Unlock()
		return
	}
	j.finished = now
	j.cancel = nil // run's deferred cancel still fires; a finished job must not pin its context
	switch {
	case err == nil:
		j.state = JobDone
		msg = Message{Type: "done", State: JobDone}
		m.done.Add(1)
	case errors.Is(err, context.Canceled):
		j.state = JobCancelled
		msg = Message{Type: "done", State: JobCancelled}
		m.cancelled.Add(1)
	default:
		j.state = JobFailed
		j.err = err
		msg = Message{Type: "done", State: JobFailed, Error: err.Error()}
		m.failed.Add(1)
	}
	seq, err := j.appendLocked(&msg)
	j.wakeLocked() // the state changed even if the done message did not encode
	// The log is complete: keep it in exactly sized memory.
	j.log = j.log.compact()
	state, errText := j.state, ""
	if j.err != nil {
		errText = j.err.Error()
	}
	j.mu.Unlock()
	if err == nil {
		m.journalAppend(j.id, seq, msg)
	}
	m.journalState(j.id, state, errText, now)
}

// journalAppend and journalState forward records to the Store, counting
// rather than propagating failures: a broken journal degrades
// durability, never the job itself.
func (m *Manager) journalAppend(id string, seq int, msg Message) {
	if m.store == nil {
		return
	}
	if err := m.store.Append(id, seq, msg); err != nil {
		m.storeErrs.Add(1)
	}
}

func (m *Manager) journalState(id string, state JobState, errText string, at time.Time) {
	if m.store == nil {
		return
	}
	if err := m.store.State(id, state, errText, at); err != nil {
		m.storeErrs.Add(1)
	}
}

// Stats is a point-in-time self-telemetry snapshot, served by
// cmd/hpas-serve's /v1/metrics.
type Stats struct {
	Workers          int     `json:"workers"`
	QueueDepth       int     `json:"queue_depth"` // queued jobs holding a slot (cancelled excluded)
	QueueCapacity    int     `json:"queue_capacity"`
	JobsSubmitted    int     `json:"jobs_submitted"`
	JobsRunning      int64   `json:"jobs_running"`
	JobsDone         int64   `json:"jobs_done"`
	JobsFailed       int64   `json:"jobs_failed"`
	JobsCancelled    int64   `json:"jobs_cancelled"`
	SamplesObserved  int64   `json:"samples_observed"`
	WindowsProcessed int64   `json:"windows_processed"`
	EventsEmitted    int64   `json:"events_emitted"`
	WindowsPerSec    float64 `json:"windows_per_sec"`
	AvgExtractMicros float64 `json:"avg_extract_micros"`
	AvgPredictMicros float64 `json:"avg_predict_micros"`
	JournalErrors    int64   `json:"journal_errors"`
	UptimeSeconds    float64 `json:"uptime_seconds"`

	// Idempotent submission (this PR's retry-safety work).
	IdempotentHits  int64 `json:"idempotent_hits"`  // submissions answered by an existing keyed job
	IdempotencyKeys int   `json:"idempotency_keys"` // keys currently tracked
	JobsAdopted     int64 `json:"jobs_adopted"`     // histories imported via journal handoff

	// Encoded-log telemetry. FramesEncoded counts messages encoded by
	// AppendMsg or its json.Marshal fallback: once per appended
	// message, once per message of a history restored from structs,
	// and once per gap frame. FrameCacheHits counts frames served to
	// frame followers as sub-slices of a job's log, with no encode.
	FramesEncoded  int64 `json:"frames_encoded"`
	FrameCacheHits int64 `json:"frame_cache_hits"`

	// Resilience telemetry (this PR's fault-injection work).
	GapsDropped                int64 `json:"gaps_dropped"`     // messages skipped past slow followers
	PanicsRecovered            int64 `json:"panics_recovered"` // pipeline panics isolated in run
	JournalAttached            bool  `json:"journal_attached"` // a Store is configured
	JournalDegraded            bool  `json:"journal_degraded"` // circuit open: in-memory-only mode
	JournalConsecutiveFailures int64 `json:"journal_consecutive_failures"`
	JournalRetries             int64 `json:"journal_retries"`
	JournalDroppedWrites       int64 `json:"journal_dropped_writes"`
	JournalReattachments       int64 `json:"journal_reattachments"`
}

// Stats snapshots the manager's self-telemetry.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	submitted := len(m.order)
	keys := len(m.byKey)
	m.mu.Unlock()
	windows := m.tel.Windows.Load()
	up := time.Since(m.started).Seconds()
	s := Stats{
		Workers:          m.cfg.Workers,
		QueueDepth:       int(m.npending.Load()),
		QueueCapacity:    m.cfg.Queue,
		JobsSubmitted:    submitted,
		JobsRunning:      m.running.Load(),
		JobsDone:         m.done.Load(),
		JobsFailed:       m.failed.Load(),
		JobsCancelled:    m.cancelled.Load(),
		SamplesObserved:  m.tel.Samples.Load(),
		WindowsProcessed: windows,
		EventsEmitted:    m.tel.Events.Load(),
		JournalErrors:    m.storeErrs.Load(),
		UptimeSeconds:    up,
		IdempotentHits:   m.dedup.Load(),
		IdempotencyKeys:  keys,
		JobsAdopted:      m.adopted.Load(),
		GapsDropped:      m.gapsDropped.Load(),
		PanicsRecovered:  m.panics.Load(),
		FramesEncoded:    m.framesEnc.Load(),
		FrameCacheHits:   m.frameHits.Load(),
		JournalAttached:  m.store != nil,
	}
	if hr, ok := m.store.(HealthReporter); ok {
		h := hr.Health()
		s.JournalDegraded = h.Degraded
		s.JournalConsecutiveFailures = h.ConsecutiveFailures
		s.JournalRetries = h.Retries
		s.JournalDroppedWrites = h.DroppedWrites
		s.JournalReattachments = h.Reattachments
	}
	if up > 0 {
		s.WindowsPerSec = float64(windows) / up
	}
	if windows > 0 {
		s.AvgExtractMicros = float64(m.tel.ExtractNanos.Load()) / float64(windows) / 1e3
		s.AvgPredictMicros = float64(m.tel.PredictNanos.Load()) / float64(windows) / 1e3
	}
	return s
}
