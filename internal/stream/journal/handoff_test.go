package journal

import (
	"bytes"
	"strings"
	"testing"

	"hpas/internal/stream"
)

// finishedSnapshot runs a short job to completion and returns its
// snapshot — the thing a source shard hands off.
func finishedSnapshot(t *testing.T) stream.RecoveredJob {
	t.Helper()
	m := stream.NewManager(stream.Config{Workers: 1})
	defer m.Close()
	spec := hogSpec(42, 30)
	spec.IdempotencyKey = "handoff-rt"
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, j)
	return j.Snapshot()
}

func joinRecords(recs [][]byte) []byte {
	out := bytes.Join(recs, []byte{'\n'})
	return append(out, '\n')
}

// The transfer contract: encoding a snapshot and replaying the lines
// reproduces the history — same state, timestamps, log, and spec key —
// and re-encoding the replayed job yields byte-identical lines, which
// is what makes the adopter's stream replay indistinguishable from the
// source's.
func TestHandoffRoundTrip(t *testing.T) {
	src := finishedSnapshot(t)
	recs, err := EncodeRecords(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 { // spec + running + ... + terminal
		t.Fatalf("encoded only %d records", len(recs))
	}

	got, n, err := Replay(bytes.NewReader(joinRecords(recs)))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("replay consumed %d records, want %d", n, len(recs))
	}
	if got.ID != "" {
		t.Fatalf("replay named the job %q; the adopter owns naming", got.ID)
	}
	if got.State != src.State || got.Err != src.Err {
		t.Fatalf("replayed state = %s/%q, want %s/%q", got.State, got.Err, src.State, src.Err)
	}
	if !got.Created.Equal(src.Created) || !got.Started.Equal(src.Started) || !got.Finished.Equal(src.Finished) {
		t.Fatalf("replayed timestamps diverge: got %v/%v/%v want %v/%v/%v",
			got.Created, got.Started, got.Finished, src.Created, src.Started, src.Finished)
	}
	if got.Spec.IdempotencyKey != src.Spec.IdempotencyKey {
		t.Fatalf("replayed key = %q, want %q", got.Spec.IdempotencyKey, src.Spec.IdempotencyKey)
	}
	if marshal(t, got.Log) != marshal(t, src.Log) {
		t.Fatal("replayed log differs from source log")
	}

	// Byte-identical re-encode: the adopter can hand the job off again
	// (or serve its stream) without any drift.
	got.ID = src.ID
	recs2, err := EncodeRecords(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(joinRecords(recs), joinRecords(recs2)) {
		t.Fatal("re-encoded records are not byte-identical")
	}
}

// A job exports the same lines from its encoded snapshot, whose msg
// records wrap the log's bytes, as from its decoded one, whose messages
// are encoded again.
func TestHandoffEncodedSnapshotMatchesDecoded(t *testing.T) {
	m := stream.NewManager(stream.Config{Workers: 1})
	defer m.Close()
	j, err := m.Submit(hogSpec(42, 30))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, j)
	fromLog, err := EncodeRecords(j.EncodedSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	fromMsgs, err := EncodeRecords(j.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(joinRecords(fromLog), joinRecords(fromMsgs)) {
		t.Fatalf("encoded-snapshot export differs:\n%s\nwant\n%s", joinRecords(fromLog), joinRecords(fromMsgs))
	}
}

// A torn tail is an error, not a shrug: unlike crash recovery, a
// handoff truncated mid-line must be reported with the count of
// complete records, so the receiver re-fetches from that offset.
func TestHandoffReplayTornTail(t *testing.T) {
	recs, err := EncodeRecords(finishedSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	whole := joinRecords(recs)
	// Cut into the middle of the last record's bytes.
	torn := whole[:len(whole)-len(recs[len(recs)-1])/2-1]

	_, n, err := Replay(bytes.NewReader(torn))
	if err == nil {
		t.Fatal("replay of a torn transfer succeeded; want an error")
	}
	if !strings.Contains(err.Error(), "torn or corrupt") {
		t.Fatalf("torn-tail error = %v, want a torn-or-corrupt report", err)
	}
	if n != len(recs)-1 {
		t.Fatalf("replay reported %d complete records, want %d", n, len(recs)-1)
	}
}

// Interrupted mid-stream: the receiver keeps the k complete records it
// holds, re-requests from=k, and the concatenation replays identically
// to an uninterrupted transfer.
func TestHandoffReplayResumeFromOffset(t *testing.T) {
	src := finishedSnapshot(t)
	recs, err := EncodeRecords(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, len(recs) / 2, len(recs) - 1} {
		// First attempt delivered only k complete records. Replaying what
		// the receiver holds tells it how far it got...
		held := joinRecords(recs[:k])
		_, n, err := Replay(bytes.NewReader(held))
		if err != nil {
			t.Fatalf("replaying %d held records: %v", k, err)
		}
		if n != k {
			t.Fatalf("held replay counted %d records, want %d", k, n)
		}
		// ...and the re-request from that offset completes the history.
		resumed := append(append([]byte(nil), held...), joinRecords(recs[n:])...)
		got, total, err := Replay(bytes.NewReader(resumed))
		if err != nil {
			t.Fatalf("resume at %d: %v", k, err)
		}
		if total != len(recs) {
			t.Fatalf("resume at %d consumed %d records, want %d", k, total, len(recs))
		}
		if got.State != src.State || marshal(t, got.Log) != marshal(t, src.Log) {
			t.Fatalf("resume at %d replayed a different history", k)
		}
	}
}

// An empty transfer is refused: zero records cannot describe a job.
func TestHandoffReplayEmpty(t *testing.T) {
	if _, _, err := Replay(strings.NewReader("\n\n  \n")); err == nil {
		t.Fatal("replay of an empty transfer succeeded; want an error")
	}
}
