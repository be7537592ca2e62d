package stream

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hpas/internal/cluster"
	"hpas/internal/core"
	"hpas/internal/diagnose"
	"hpas/internal/features"
	"hpas/internal/ml"
)

// userMean is a stub classifier keyed on the real monitor metric set:
// it predicts "hog" when the user::procstat mean over the window
// exceeds 50% of one CPU. user::procstat is the last of the 10 default
// metrics in sorted order, so its mean sits at index 9*features.Count().
type userMean struct{}

func (userMean) Fit(*ml.Dataset, []int) error { return nil }
func (userMean) Predict(x []float64) int {
	if x[9*features.Count()] > 50 {
		return 1
	}
	return 0
}

func stubUserDetector() *diagnose.Detector {
	return &diagnose.Detector{
		Model:   userMean{},
		Classes: []string{"none", "hog"},
		Window:  5,
	}
}

// hogSpec is a 1-node campaign with cpuoccupy active over [10,20) of a
// 30-second run, watched through the stub detector with 5 s windows.
func hogSpec(seed uint64, fixedSeconds float64) JobSpec {
	return JobSpec{
		Campaign: core.Campaign{
			Base: core.RunConfig{
				Cluster:      cluster.Voltrino(1),
				FixedSeconds: fixedSeconds,
				Seed:         seed,
			},
			Phases: []core.Phase{{
				Label: "hog", Start: 10, Duration: 10,
				Specs: []core.Spec{{Name: "cpuoccupy", Node: 0, CPU: 0, Intensity: 95}},
			}},
		},
		Pipeline: PipelineConfig{Detector: stubUserDetector()},
	}
}

// drain follows the job to completion and returns its full log.
func drain(t *testing.T, j *Job) []Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var msgs []Message
	for m := range j.Follow(ctx) {
		msgs = append(msgs, m)
	}
	if ctx.Err() != nil {
		t.Fatalf("job %s stream did not complete: %v", j.ID(), ctx.Err())
	}
	return msgs
}

func TestManagerRunsConcurrentJobsDeterministically(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Close()

	// Three jobs in flight on two workers: two share a seed (must have
	// byte-identical streams), the third differs.
	jobs := make([]*Job, 3)
	seeds := []uint64{42, 42, 7}
	for i, seed := range seeds {
		j, err := m.Submit(hogSpec(seed, 30))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}

	logs := make([][]Message, len(jobs))
	for i, j := range jobs {
		logs[i] = drain(t, j)
		if st, err := j.State(); st != JobDone {
			t.Fatalf("job %s state = %s (err %v), want done", j.ID(), st, err)
		}
		evs := j.Events()
		if len(evs) != 1 {
			t.Fatalf("job %s emitted %d events, want 1: %+v", j.ID(), len(evs), evs)
		}
		ev := evs[0]
		if ev.Class != "hog" || ev.Start != 10 || ev.End != 20 || ev.Windows != 2 {
			t.Fatalf("job %s event = %+v, want hog [10,20) over 2 windows", j.ID(), ev)
		}
	}

	enc := func(msgs []Message) string {
		b, err := json.Marshal(msgs)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if enc(logs[0]) != enc(logs[1]) {
		t.Errorf("same-seed jobs diverged:\n%s\n%s", enc(logs[0]), enc(logs[1]))
	}

	st := m.Stats()
	if st.JobsSubmitted != 3 || st.JobsDone != 3 {
		t.Errorf("stats = %+v, want 3 submitted and 3 done", st)
	}
	if st.WindowsProcessed != 18 { // 3 jobs x 6 windows
		t.Errorf("windows processed = %d, want 18", st.WindowsProcessed)
	}
	if st.EventsEmitted != 3 {
		t.Errorf("events emitted = %d, want 3", st.EventsEmitted)
	}
}

func TestManagerPlainRunWithoutPhases(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()

	spec := JobSpec{
		Campaign: core.Campaign{Base: core.RunConfig{
			Cluster:      cluster.Voltrino(1),
			FixedSeconds: 10,
			Seed:         3,
		}},
		Pipeline: PipelineConfig{Detector: stubUserDetector()},
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	msgs := drain(t, j)
	if st, _ := j.State(); st != JobDone {
		t.Fatalf("state = %s, want done", st)
	}
	var windows, events int
	for _, msg := range msgs {
		switch msg.Type {
		case "window":
			windows++
			if msg.Window.Class != "none" {
				t.Errorf("clean run window classified %q", msg.Window.Class)
			}
		case "event":
			events++
		}
	}
	if windows != 2 || events != 0 {
		t.Fatalf("clean run: %d windows / %d events, want 2 / 0", windows, events)
	}
	// What a client sees of a finished job: the done frame closes the
	// stream, and the window count is on the manager's metrics.
	if last := msgs[len(msgs)-1]; last.Type != "done" || last.State != JobDone || last.Error != "" {
		t.Fatalf("last frame = %+v, want a clean done frame", last)
	}
	if st := m.Stats(); st.WindowsProcessed != 2 || st.JobsDone != 1 {
		t.Fatalf("stats = %+v, want 2 windows processed and 1 job done", st)
	}
}

func TestManagerCancelRunningJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()

	// A run long enough that cancellation lands mid-flight.
	j, err := m.Submit(hogSpec(5, 800000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ch := j.Follow(ctx)
	<-ch // first stream message: the job is demonstrably running
	if err := m.Cancel(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	var last Message
	for m := range ch {
		last = m
	}
	if last.Type != "done" || last.State != JobCancelled {
		t.Fatalf("final message = %+v, want done/cancelled", last)
	}
	if st, _ := j.State(); st != JobCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
}

// Cancel of a running job returns once the job is terminal, so a
// caller that cancels and then looks — the router cancelling a zombie
// copy, say — never sees it still running.
func TestManagerCancelRunningJobReturnsTerminal(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	j, err := m.Submit(hogSpec(5, 800000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	<-j.Follow(ctx) // first stream message: the job is demonstrably running
	if err := m.Cancel(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	if st, _ := j.State(); st != JobCancelled {
		t.Fatalf("state right after Cancel = %s, want cancelled", st)
	}
}

// Cancel's wait for a running job ends with its context: a job whose
// worker never finalizes it does not hold the caller.
func TestManagerCancelWaitEndsWithContext(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	j := m.newJob("j0001", JobSpec{}, JobRunning, time.Now())
	stopped := false
	j.cancel = func() { stopped = true }
	m.mu.Lock()
	m.jobs[j.id] = j
	m.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Cancel(ctx, j.ID()); err != context.DeadlineExceeded {
		t.Fatalf("Cancel = %v, want %v", err, context.DeadlineExceeded)
	}
	if !stopped {
		t.Error("the run was not cancelled")
	}
	if st, _ := j.State(); st != JobRunning {
		t.Errorf("state = %s, want running (its worker never finished it)", st)
	}
}

// A message that does not encode fails its job with the encoding error
// and is neither logged nor followed by anything but the done message.
func TestManagerUnencodableMessageFailsJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	j := m.newJob("j0001", JobSpec{}, JobRunning, time.Now())
	stopped := false
	j.cancel = func() { stopped = true }
	m.append(j, Message{Type: "window", Window: &Window{Class: "none", Confidence: math.NaN()}})
	m.append(j, Message{Type: "window", Window: &Window{Class: "none", Confidence: 1}})
	st, err := j.State()
	if st != JobFailed || err == nil || !strings.Contains(err.Error(), "encoding window message") {
		t.Fatalf("state = %s (%v), want failed with the encoding error", st, err)
	}
	if !stopped {
		t.Error("the run was not cancelled")
	}
	msgs := j.Messages()
	if len(msgs) != 1 || msgs[0].Type != "done" || msgs[0].State != JobFailed {
		t.Fatalf("log = %+v, want only the failed done message", msgs)
	}
}

// Regression: finish used to leave j.cancel set, so every finished job
// pinned its run's context for the manager's lifetime. The cancel func
// is dropped on finish, and Cancel on a finished job stays a no-op.
func TestManagerFinishedJobReleasesRunContext(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	j, err := m.Submit(hogSpec(6, 30))
	if err != nil {
		t.Fatal(err)
	}
	before := drain(t, j)
	j.mu.Lock()
	pinned := j.cancel != nil
	j.mu.Unlock()
	if pinned {
		t.Fatal("finished job still holds its run's cancel func")
	}
	stats := m.Stats()
	if err := m.Cancel(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	if st, err := j.State(); st != JobDone || err != nil {
		t.Fatalf("after Cancel: state = %s (err %v), want done", st, err)
	}
	after := drain(t, j)
	if len(after) != len(before) || after[len(after)-1] != before[len(before)-1] {
		t.Fatalf("Cancel on a finished job changed its stream: %d → %d messages, last %+v", len(before), len(after), after[len(after)-1])
	}
	if got := m.Stats(); got.JobsDone != stats.JobsDone || got.JobsCancelled != stats.JobsCancelled {
		t.Fatalf("Cancel on a finished job changed stats: %+v → %+v", stats, got)
	}
}

func TestManagerCancelQueuedJobAndQueueFull(t *testing.T) {
	m := NewManager(Config{Workers: 1, Queue: 1})
	defer m.Close()

	long, err := m.Submit(hogSpec(1, 800000))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the long job occupies the single worker.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, _ := long.State(); st == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(time.Millisecond)
	}

	queued, err := m.Submit(hogSpec(2, 30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(hogSpec(3, 30)); err != ErrQueueFull {
		t.Fatalf("third submit error = %v, want ErrQueueFull", err)
	}

	if err := m.Cancel(context.Background(), queued.ID()); err != nil {
		t.Fatal(err)
	}
	if st, _ := queued.State(); st != JobCancelled {
		t.Fatalf("queued job state = %s, want cancelled", st)
	}
	msgs := drain(t, queued)
	if len(msgs) != 1 || msgs[0].Type != "done" || msgs[0].State != JobCancelled {
		t.Fatalf("queued-cancelled stream = %+v, want single done/cancelled", msgs)
	}

	if err := m.Cancel(context.Background(), long.ID()); err != nil {
		t.Fatal(err)
	}
	drain(t, long)

	if err := m.Cancel(context.Background(), "nope"); err == nil {
		t.Error("cancelling unknown job did not error")
	}
}

func TestManagerSubmitValidation(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	if _, err := m.Submit(JobSpec{Pipeline: PipelineConfig{Detector: stubUserDetector()}}); err == nil {
		t.Error("submission without a cluster accepted")
	}
	if _, err := m.Submit(JobSpec{
		Campaign: core.Campaign{Base: core.RunConfig{Cluster: cluster.Voltrino(1), FixedSeconds: 5}},
	}); err == nil {
		t.Error("submission without a detector accepted")
	}
	m.Close()
	if _, err := m.Submit(hogSpec(1, 10)); err != ErrClosed {
		t.Errorf("submit after close error = %v, want ErrClosed", err)
	}
}

// Regression: a job cancelled while queued must release its queue slot
// immediately — before this fix it sat in the queue channel until a
// worker drained it, so QueueDepth overcounted and a fresh submission
// hit ErrQueueFull even though no live job held the slot.
func TestManagerCancelQueuedReleasesSlot(t *testing.T) {
	m := NewManager(Config{Workers: 1, Queue: 1})
	defer m.Close()

	long, err := m.Submit(hogSpec(1, 800000))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, _ := long.State(); st == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(time.Millisecond)
	}

	queued, err := m.Submit(hogSpec(2, 30))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().QueueDepth; got != 1 {
		t.Fatalf("queue depth with one queued job = %d, want 1", got)
	}
	if _, err := m.Submit(hogSpec(3, 30)); err != ErrQueueFull {
		t.Fatalf("submit on full queue error = %v, want ErrQueueFull", err)
	}

	if err := m.Cancel(context.Background(), queued.ID()); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().QueueDepth; got != 0 {
		t.Errorf("queue depth after cancelling queued job = %d, want 0", got)
	}
	// The slot is free again even though the worker never touched the
	// cancelled job (it is still busy with the long one).
	replacement, err := m.Submit(hogSpec(4, 30))
	if err != nil {
		t.Fatalf("submit after queued-cancel = %v, want accepted", err)
	}

	// Unblock the worker; it must skip the cancelled job without
	// disturbing the accounting, then run the replacement.
	if err := m.Cancel(context.Background(), long.ID()); err != nil {
		t.Fatal(err)
	}
	drain(t, long)
	drain(t, replacement)
	if st, _ := replacement.State(); st != JobDone {
		t.Fatalf("replacement state = %s, want done", st)
	}
	if got := m.Stats().QueueDepth; got != 0 {
		t.Errorf("final queue depth = %d, want 0", got)
	}
	if st := m.Stats(); st.JobsCancelled != 2 || st.JobsDone != 1 {
		t.Errorf("stats = %+v, want 2 cancelled / 1 done", st)
	}
}

// Regression: Events used to rescan the whole log and dereference
// m.Event without a nil check, so a log holding a malformed "event"
// message (e.g. from a hand-edited or damaged journal) panicked the
// handler. The index is now built incrementally with a nil guard.
func TestEventsSkipsNilEventMessages(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()

	ev := Event{Node: 0, Class: "hog", Start: 10, End: 20, Windows: 2, Confidence: 1}
	err := m.Reopen([]RecoveredJob{{
		ID:    "j0007",
		State: JobDone,
		Log: []Message{
			{Type: "window", Window: &Window{Node: 0, From: 0, To: 5, Class: "none"}},
			{Type: "event"}, // malformed: no payload
			{Type: "event", Event: &ev},
			{Type: "done", State: JobDone},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	j, ok := m.Get("j0007")
	if !ok {
		t.Fatal("recovered job missing")
	}
	evs := j.Events() // must not panic
	if len(evs) != 1 || evs[0] != ev {
		t.Fatalf("events = %+v, want exactly the well-formed one", evs)
	}
}

// Live jobs maintain the event index incrementally: Events observed
// mid-run match the event messages in the log so far.
func TestEventsIncrementalMatchesLog(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	j, err := m.Submit(hogSpec(9, 30))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, j)
	var fromLog []Event
	for _, msg := range j.Messages() {
		if msg.Type == "event" && msg.Event != nil {
			fromLog = append(fromLog, *msg.Event)
		}
	}
	evs := j.Events()
	if len(evs) != len(fromLog) {
		t.Fatalf("events = %d, log has %d", len(evs), len(fromLog))
	}
	for i := range evs {
		if evs[i] != fromLog[i] {
			t.Errorf("event %d = %+v, log has %+v", i, evs[i], fromLog[i])
		}
	}
}

// panicModel blows up on the first classification, exercising the
// worker's panic isolation.
type panicModel struct{}

func (panicModel) Fit(*ml.Dataset, []int) error { return nil }
func (panicModel) Predict([]float64) int        { panic("kaboom: model index out of range") }

// A panicking pipeline must finalize its job as failed with the panic
// text and hand the worker back to the pool — not kill the process or
// silently shrink the pool.
func TestManagerRecoversPanickingPipeline(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()

	spec := hogSpec(11, 30)
	spec.Pipeline.Detector = &diagnose.Detector{
		Model:   panicModel{},
		Classes: []string{"none", "hog"},
		Window:  5,
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	msgs := drain(t, j)
	st, jerr := j.State()
	if st != JobFailed || jerr == nil {
		t.Fatalf("panicked job state = %s (err %v), want failed", st, jerr)
	}
	if !strings.Contains(jerr.Error(), "panic") || !strings.Contains(jerr.Error(), "kaboom") {
		t.Errorf("job error %q does not carry the panic text", jerr)
	}
	last := msgs[len(msgs)-1]
	if last.Type != "done" || last.State != JobFailed || !strings.Contains(last.Error, "kaboom") {
		t.Errorf("final stream message = %+v, want done/failed with panic text", last)
	}
	if got := m.Stats().PanicsRecovered; got != 1 {
		t.Errorf("panics recovered = %d, want 1", got)
	}

	// The single worker survived: a healthy job still runs to completion.
	j2, err := m.Submit(hogSpec(12, 30))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, j2)
	if st, _ := j2.State(); st != JobDone {
		t.Fatalf("post-panic job state = %s, want done — the worker died with the panic", st)
	}
}

// A follower that stalls behind a live job must be skipped forward with
// a "gap" message instead of buffering the backlog without bound.
func TestManagerSlowFollowerGetsGap(t *testing.T) {
	m := NewManager(Config{Workers: 1, FollowLimit: 4})
	defer m.Close()

	j, err := m.Submit(hogSpec(5, 800000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ch := j.Follow(ctx)
	first := <-ch // the job is demonstrably producing

	// Stall until the job is far past the follow limit, then resume: the
	// follower goroutine is parked well behind head and must skip.
	deadline := time.Now().Add(30 * time.Second)
	for len(j.Messages()) < 48 {
		if time.Now().After(deadline) {
			t.Fatal("long job produced no backlog")
		}
		time.Sleep(time.Millisecond)
	}
	var gap Message
	found := false
	prev := first.Seq
	for msg := range ch {
		if msg.Type == "gap" {
			gap = msg
			found = true
			break
		}
		if msg.Seq != prev+1 {
			t.Fatalf("sequence jumped %d -> %d without a gap message", prev, msg.Seq)
		}
		prev = msg.Seq
	}
	if !found {
		t.Fatal("follower resumed from a deep stall without a gap message")
	}
	if gap.Dropped <= 0 {
		t.Errorf("gap.Dropped = %d, want > 0", gap.Dropped)
	}
	if gap.Seq < gap.Dropped {
		t.Errorf("gap seq %d inconsistent with %d dropped", gap.Seq, gap.Dropped)
	}
	// The next delivered message continues right after the gap marker.
	if msg, ok := <-ch; ok && msg.Seq != gap.Seq+1 {
		t.Errorf("post-gap message seq = %d, want %d", msg.Seq, gap.Seq+1)
	}
	if got := m.Stats().GapsDropped; got < int64(gap.Dropped) {
		t.Errorf("stats gaps dropped = %d, want >= %d", got, gap.Dropped)
	}

	if err := m.Cancel(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	for range ch {
	}
}

// Manager.Close must terminate live followers: their channels close
// once the cancelled jobs finalize, and the follower goroutines exit
// even when the consumer's context never fires.
func TestManagerCloseClosesFollowers(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewManager(Config{Workers: 2})

	var chans []<-chan Message
	for i := 0; i < 3; i++ {
		j, err := m.Submit(hogSpec(uint64(20+i), 800000))
		if err != nil {
			t.Fatal(err)
		}
		// Background context: the only way out for these followers is
		// the job finalizing.
		chans = append(chans, j.Follow(context.Background()))
	}
	for _, ch := range chans {
		<-ch // all followers demonstrably attached to live jobs
	}

	m.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, ch := range chans {
			for range ch {
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("follower channels still open 30s after Manager.Close")
	}

	// Leak check: the worker pool and all follower goroutines are gone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across Close: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gatedStore records journal traffic per job and lets a test hold
// Create open to probe what is visible mid-submission.
type gatedStore struct {
	mu      sync.Mutex
	records map[string][]string
	gate    chan struct{} // nil = pass through; else Create blocks on it
}

func (s *gatedStore) add(id, kind string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.records == nil {
		s.records = make(map[string][]string)
	}
	s.records[id] = append(s.records[id], kind)
}

func (s *gatedStore) Create(id string, _ time.Time, _ JobSpec) error {
	if s.gate != nil {
		<-s.gate
	}
	s.add(id, "create")
	return nil
}
func (s *gatedStore) Append(id string, _ int, _ Message) error { s.add(id, "append"); return nil }
func (s *gatedStore) State(id string, st JobState, _ string, _ time.Time) error {
	s.add(id, "state:"+string(st))
	return nil
}
func (s *gatedStore) Close() error { return nil }

func (s *gatedStore) kinds(id string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.records[id]...)
}

// Regression: Submit used to enqueue the job and journal Create after
// dropping the manager lock, so a fast Cancel could journal the job's
// terminal records before its create record existed — an ordering
// journal.Recover never expects. Create must be the job's first record,
// and the job must stay invisible until it lands.
func TestSubmitJournalsCreateFirst(t *testing.T) {
	store := &gatedStore{gate: make(chan struct{})}
	m := NewManager(Config{Workers: 1, Store: store})
	defer m.Close()

	submitted := make(chan *Job, 1)
	go func() {
		j, err := m.Submit(hogSpec(1, 30))
		if err != nil {
			t.Errorf("submit: %v", err)
			submitted <- nil
			return
		}
		submitted <- j
	}()

	// While Create is journaling, the job does not exist to cancellers:
	// nothing can race a terminal record ahead of the create record.
	time.Sleep(20 * time.Millisecond)
	if err := m.Cancel(context.Background(), "j0001"); err == nil {
		t.Error("job cancellable while its create record is still being journaled")
	}
	if _, ok := m.Get("j0001"); ok {
		t.Error("job visible while its create record is still being journaled")
	}

	close(store.gate)
	j := <-submitted
	if j == nil {
		t.FailNow()
	}
	// Cancel immediately — with the old ordering this was the race that
	// put state records first.
	if err := m.Cancel(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	drain(t, j)

	recs := store.kinds(j.ID())
	if len(recs) == 0 || recs[0] != "create" {
		t.Fatalf("journal records = %v, want create first", recs)
	}
}

// Drain returns once the pool is idle, and hands back the context error
// when the budget runs out first.
func TestManagerDrain(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()

	j, err := m.Submit(hogSpec(1, 800000))
	if err != nil {
		t.Fatal(err)
	}
	short, cancelShort := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelShort()
	if err := m.Drain(short); err != context.DeadlineExceeded {
		t.Fatalf("drain with a running job = %v, want deadline exceeded", err)
	}

	if err := m.Cancel(context.Background(), j.ID()); err != nil {
		t.Fatal(err)
	}
	drain(t, j)
	long, cancelLong := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelLong()
	if err := m.Drain(long); err != nil {
		t.Fatalf("drain on an idle pool = %v, want nil", err)
	}
}
