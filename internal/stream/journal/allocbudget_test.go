package journal

import (
	"context"
	"runtime"
	"testing"

	"hpas/internal/race"
	"hpas/internal/stream"
)

// appendAllocBudgetPerRecord bounds the journal append hot path:
// encoding one msg record into the job's flush buffer by hand.
// Measured ~2 allocs/record; the ceiling leaves room for allocator
// noise while still catching a marshal-per-record buffer regression.
const appendAllocBudgetPerRecord = 8.0

func TestAllocBudgetJournalAppend(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed by -race instrumentation")
	}
	if testing.Short() {
		t.Skip("alloc budgets run full benchmarks; skipped in -short")
	}
	res := testing.Benchmark(BenchmarkJournalAppend)
	if per := float64(res.AllocsPerOp()); per > appendAllocBudgetPerRecord {
		t.Fatalf("journal append allocates %.3f allocs/record, budget %.2f", per, appendAllocBudgetPerRecord)
	}
}

// recoverAllocBudgetPerMsg bounds recovery per msg record, the file's
// fixed costs (read, spec, sort, the encoded log) spread over
// BenchmarkRecover's messages. The one-pass decoder lends its Window
// and Event and the log is sized once, so a record allocates nothing:
// measured ≈ 0.07; json.Unmarshal per line was ≈ 14.
const recoverAllocBudgetPerMsg = 2.0

func TestAllocBudgetRecover(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed by -race instrumentation")
	}
	if testing.Short() {
		t.Skip("alloc budgets run full benchmarks; skipped in -short")
	}
	res := testing.Benchmark(BenchmarkRecover)
	if per := float64(res.AllocsPerOp()) / recoverMsgs; per > recoverAllocBudgetPerMsg {
		t.Fatalf("recovery allocates %.3f allocs/msg record, budget %.2f", per, recoverAllocBudgetPerMsg)
	}
}

// A restored job keeps its log's message bytes and their end offsets
// in exactly sized memory, as a finished live job does: nothing of the
// journal's record framing and no slack from sizing the log before the
// file was parsed.
func TestRestoredJobRetainsOnlyItsLog(t *testing.T) {
	if race.Enabled {
		t.Skip("heap figures are skewed by -race instrumentation")
	}
	dir := t.TempDir()
	writeReplayJournal(t, dir)
	jn, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	m := stream.NewManager(stream.Config{Workers: 1})
	defer m.Close()
	if _, err := jn.Recover(); err != nil { // warm up one-time allocations
		t.Fatal(err)
	}
	before := liveHeap()
	recovered, err := jn.Recover()
	if err != nil || len(recovered) != 1 {
		t.Fatalf("recovered %d jobs (err %v), want 1", len(recovered), err)
	}
	if err := m.Reopen(recovered); err != nil {
		t.Fatal(err)
	}
	recovered = nil
	retained := liveHeap() - before
	j, _ := m.Get("j0001")
	logBytes := int64(0)
	for f := range j.FollowFramesFrom(context.Background(), 0) {
		logBytes += int64(len(f.Data)) + 8 // the bytes and one end offset
	}
	// The job's struct, spec and event index come to ≈ 5 KB; sizing
	// the log from the file's length would leave ≈ 10 % of it (≈ 12 KB
	// here) as slack on top.
	t.Logf("a restored job of %d log bytes retains %d B", logBytes, retained)
	if retained > logBytes+8192 {
		t.Fatalf("a restored job retains %d B for a log of %d B", retained, logBytes)
	}
}

// liveHeap is HeapAlloc after two collections: the first may leave
// finalizer-reachable garbage for the second.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
