package journal

import (
	"testing"
	"time"

	"hpas/internal/stream"
)

// BenchmarkJournalAppend measures the durable-log append hot path: one
// op encodes one window record into the job's flush buffer (the
// fsync-batched flusher drains it asynchronously, as in production).
// The alloc-budget test pins this path's per-record allocations.
func BenchmarkJournalAppend(b *testing.B) {
	jn, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := jn.Create("j0001", time.Now(), stream.JobSpec{}); err != nil {
		b.Fatal(err)
	}
	w := stream.Window{Node: 0, From: 0, To: 12, Class: "none"}
	msg := stream.Message{Type: "window", Window: &w}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := jn.Append("j0001", i, msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := jn.Close(); err != nil {
		b.Fatal(err)
	}
}

// recoverMsgs is the number of msg records in BenchmarkRecover's
// journal: a restart-replay job's 1 001 messages, the done one included.
const recoverMsgs = 1001

// writeReplayJournal journals one finished job shaped like the ones
// the restart-replay workload recovers: a spec, a running transition,
// recoverMsgs messages — windows on four nodes at stride 1 with an
// event now and then, then done — and the terminal state.
func writeReplayJournal(tb testing.TB, dir string) {
	tb.Helper()
	jn, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 6e6, time.UTC)
	if err := jn.Create("j0001", at, hogSpec(1, 300)); err != nil {
		tb.Fatal(err)
	}
	if err := jn.State("j0001", stream.JobRunning, "", at); err != nil {
		tb.Fatal(err)
	}
	classes := []string{"none", "cpuoccupy", "memleak"}
	for i := 0; i < recoverMsgs-1; i++ {
		node, from := i%4, float64(i/4)
		msg := stream.Message{Type: "window", Window: &stream.Window{
			Node: node, From: from, To: from + 10, Class: classes[i/97%3], Confidence: float64(i%13+1) / 13,
		}}
		if i%50 == 49 {
			msg = stream.Message{Type: "event", Event: &stream.Event{
				Node: node, Class: classes[1+i/50%2], Start: from - 30, End: from + 10, Windows: 31, Confidence: 0.8709677419354839,
			}}
		}
		if err := jn.Append("j0001", i, msg); err != nil {
			tb.Fatal(err)
		}
	}
	if err := jn.Append("j0001", recoverMsgs-1, stream.Message{Type: "done", State: stream.JobDone}); err != nil {
		tb.Fatal(err)
	}
	if err := jn.State("j0001", stream.JobDone, "", at.Add(time.Minute)); err != nil {
		tb.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkRecover measures restart recovery: one op recovers a
// journal holding one restart-replay-shaped job of recoverMsgs
// messages. The alloc-budget test pins its allocations per message.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	writeReplayJournal(b, dir)
	jn, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer jn.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs, err := jn.Recover()
		if err != nil || len(jobs) != 1 || len(jobs[0].Log) != recoverMsgs {
			b.Fatalf("recovered %d jobs (err %v), want one of %d messages", len(jobs), err, recoverMsgs)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*recoverMsgs), "ns/msg")
}
