package stream

import (
	"context"
	"sync"
	"testing"
	"time"
)

// benchFinishedJob restores a done job whose log holds n window
// messages plus the terminal done record — the same shape journal
// recovery produces — so replay benchmarks run against a real job
// without paying for a simulation.
func benchFinishedJob(b *testing.B, m *Manager, n int) *Job {
	b.Helper()
	w := Window{Node: 0, From: 0, To: 12, Class: "none"}
	log := make([]Message, 0, n+1)
	for i := 0; i < n; i++ {
		log = append(log, Message{Type: "window", Window: &w})
	}
	log = append(log, Message{Type: "done", State: JobDone})
	now := time.Now()
	if err := m.Reopen([]RecoveredJob{{
		ID: "j0001", State: JobDone, Log: log,
		Created: now, Started: now, Finished: now,
	}}); err != nil {
		b.Fatal(err)
	}
	j, ok := m.Get("j0001")
	if !ok {
		b.Fatal("reopened job missing")
	}
	return j
}

// benchReplayMsgs is the log length the replay benchmarks use.
const benchReplayMsgs = 255

// BenchmarkFrameReplayFanout measures the shared-frame replay path: one
// op drains a full FollowFramesFrom replay of a finished job. Every
// frame is a sub-slice of the job's encoded log, so per-message
// allocations on this path are what the alloc-budget test pins.
func BenchmarkFrameReplayFanout(b *testing.B) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	j := benchFinishedJob(b, m, benchReplayMsgs)
	ctx := context.Background()
	for range j.FollowFramesFrom(ctx, 0) { // warm up
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range j.FollowFramesFrom(ctx, 0) {
		}
	}
	b.ReportMetric(benchReplayMsgs+1, "msgs/op")
}

// BenchmarkAppendFanout measures the live append→fan-out path: one op
// appends one message to a running job while 8 frame followers drain
// it. The follow limit is negative (drops disabled) so every appended
// message is delivered to every follower and the op count is exact.
func BenchmarkAppendFanout(b *testing.B) {
	const followers = 8
	j := &Job{
		id:          "bench",
		state:       JobRunning,
		followLimit: -1,
		updated:     make(chan struct{}),
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for f := 0; f < followers; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range j.FollowFramesFrom(ctx, 0) {
			}
		}()
	}
	w := Window{Node: 0, From: 0, To: 12, Class: "none"}
	msg := Message{Type: "window", Window: &w}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.mu.Lock()
		if _, err := j.appendLocked(&msg); err != nil {
			b.Fatal(err)
		}
		j.mu.Unlock()
	}
	b.StopTimer()
	j.mu.Lock()
	j.state = JobDone
	if _, err := j.appendLocked(&Message{Type: "done", State: JobDone}); err != nil {
		b.Fatal(err)
	}
	j.mu.Unlock()
	wg.Wait()
}
