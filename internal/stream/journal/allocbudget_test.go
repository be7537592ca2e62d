package journal

import (
	"testing"

	"hpas/internal/race"
)

// appendAllocBudgetPerRecord bounds the journal append hot path:
// encoding one record into the job's flush buffer through the
// persistent encoder. Measured ~3 allocs/record; the ceiling leaves
// room for allocator noise while still catching a marshal-per-record
// buffer regression.
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
// fixed costs (read, spec, sort) spread over BenchmarkRecover's
// messages. The one-pass decoder allocates the *Window or *Event and
// nothing else: measured ≈ 1.1; json.Unmarshal per line was ≈ 14.
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
