package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpas"
)

// newGappyServer runs the service with a tiny follow limit, so a
// follower more than two messages behind a live job's head is skipped
// forward with a "gap" frame.
func newGappyServer(t *testing.T) (*httptest.Server, *hpas.StreamManager) {
	t.Helper()
	mgr := hpas.NewStreamManager(hpas.StreamConfig{Workers: 2, FollowLimit: 2})
	ts := httptest.NewServer(New(mgr, detector(t), Config{}).Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts, mgr
}

// waitForHead blocks until the job's log has at least n messages,
// consuming (and discarding) a private fast follower.
func waitForHead(t *testing.T, mgr *hpas.StreamManager, id string, n int) {
	t.Helper()
	j, ok := mgr.Get(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for msg := range j.FollowFrom(ctx, 0) {
		if msg.Seq >= n-1 {
			return
		}
	}
	t.Fatalf("job %s log never reached %d messages", id, n)
}

// waitDone blocks until the job reaches a terminal state.
func waitDone(t *testing.T, j *hpas.StreamJob) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for range j.Follow(ctx) {
	}
	if state, _ := j.State(); !state.Final() {
		t.Fatalf("job %s still %s after follow ended", j.ID(), state)
	}
}

// A Last-Event-ID pointing inside a region the live follow limit has
// already dropped past must not stall or replay stale history at live
// pace: the server answers with a "gap" frame advancing the client to
// the follow window, then streams on. After the job finishes the same
// resume index replays the real messages — the log keeps everything;
// only live lag is bounded.
func TestServeSSEResumeInsideGapSkippedRegion(t *testing.T) {
	ts, mgr := newGappyServer(t)

	// Effectively endless job: windows keep coming until cancelled.
	id := submit(t, ts, `{"seed":9,"duration":800000,"window":10}`)
	waitForHead(t, mgr, id, 10)

	// Resume from index 4 of a live job whose head is ≥10 with follow
	// limit 2: indices 4..head-3 are gap-skipped.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type frame struct {
		id    int
		event string
		data  string
	}
	readFrame := func(sc *bufio.Scanner) (frame, bool) {
		var f frame
		f.id = -1
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if f.data != "" {
					return f, true
				}
			case strings.HasPrefix(line, "id: "):
				f.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.data = strings.TrimPrefix(line, "data: ")
			}
		}
		return f, false
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	first, ok := readFrame(sc)
	if !ok {
		t.Fatal("stream ended before any frame")
	}
	if first.event != "gap" {
		t.Fatalf("first resumed frame = %+v, want a gap (resume index is inside the dropped region)", first)
	}
	var gap hpas.StreamMessage
	if err := json.Unmarshal([]byte(first.data), &gap); err != nil {
		t.Fatal(err)
	}
	if gap.Dropped <= 0 {
		t.Fatalf("gap frame reports %d dropped, want > 0", gap.Dropped)
	}
	if first.id != 4+gap.Dropped-1 {
		t.Fatalf("gap id %d does not equal last skipped index %d", first.id, 4+gap.Dropped-1)
	}
	// The frame after the gap continues exactly at gap id + 1.
	second, ok := readFrame(sc)
	if !ok {
		t.Fatal("stream ended right after the gap frame")
	}
	if second.id != first.id+1 || second.event == "gap" {
		t.Fatalf("post-gap frame = %+v, want real message at id %d", second, first.id+1)
	}
	resp.Body.Close()

	// Cancel and let the job settle into its terminal state.
	creq, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	j, _ := mgr.Get(id)
	waitDone(t, j)

	// Finished job, same resume index: the full log replays — index 4
	// onward, contiguous, no gap frames, ending in done.
	frames := getSSE(t, ts, id, "3")
	if len(frames) == 0 {
		t.Fatal("post-finish resume returned no frames")
	}
	for i, fr := range frames {
		if fr.event == "gap" {
			t.Fatalf("finished-job replay emitted a gap frame: %+v", fr)
		}
		if fr.id != strconv.Itoa(4+i) {
			t.Fatalf("finished-job replay frame %d has id %s, want %d (contiguous)", i, fr.id, 4+i)
		}
	}
	if last := frames[len(frames)-1]; last.event != "done" {
		t.Fatalf("finished-job replay ended with %q, want done", last.event)
	}
}

// Regression for the shared-frame ring: once a full replay has warmed
// the cache, a follower reconnecting with Last-Event-ID equal to any
// already-delivered frame — including the last one before done — must
// resume exactly one past it, never receive the cached frame again,
// and see bytes identical to the first replay's tail. An off-by-one in
// the seq-keyed cache lookup would surface here as a duplicate.
func TestServeSSEResumeFromCachedFrameNotDuplicated(t *testing.T) {
	ts, mgr := newTestServer(t)
	id := submit(t, ts, `{"seed":5,"duration":30,"campaign":"cpuoccupy@10-20:95","window":10}`)
	j, _ := mgr.Get(id)
	waitDone(t, j)

	// First full replay populates the encoded-frame cache end to end.
	full := getSSE(t, ts, id, "")
	if len(full) < 3 {
		t.Fatalf("finished job replayed only %d frames", len(full))
	}
	if last := full[len(full)-1]; last.event != "done" {
		t.Fatalf("replay ended with %q, want done", last.event)
	}
	for _, k := range []int{0, len(full) / 2, len(full) - 2} {
		tail := getSSE(t, ts, id, full[k].id)
		if len(tail) != len(full)-(k+1) {
			t.Fatalf("Last-Event-ID %s resumed %d frames, want %d", full[k].id, len(tail), len(full)-(k+1))
		}
		for i, fr := range tail {
			if fr.id == full[k].id {
				t.Fatalf("Last-Event-ID %s: frame %s delivered twice (cached frame replayed)", full[k].id, fr.id)
			}
			if fr != full[k+1+i] {
				t.Fatalf("Last-Event-ID %s: resumed frame %d = %+v, want %+v (cached bytes must match)",
					full[k].id, i, fr, full[k+1+i])
			}
		}
	}
	// Resuming from the terminal frame itself yields nothing at all.
	if tail := getSSE(t, ts, id, full[len(full)-1].id); len(tail) != 0 {
		t.Fatalf("resume past done delivered %d frames, want 0: %+v", len(tail), tail)
	}
}

// A client that disconnects mid-stream and reconnects after the job
// has finished must receive exactly the frames it missed — including
// the terminal done frame — not a replay from scratch and not silence.
func TestServeSSEResumeAfterJobFinished(t *testing.T) {
	ts, mgr := newTestServer(t)
	id := submit(t, ts, `{"seed":5,"duration":30,"campaign":"cpuoccupy@10-20:95","window":10}`)

	// First connection: read exactly two frames, then drop the link.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	seen := 0
	for sc.Scan() && seen < 2 {
		if strings.HasPrefix(sc.Text(), "data: ") {
			seen++
		}
	}
	resp.Body.Close() // disconnect with the job still running
	if seen < 2 {
		t.Fatalf("saw %d frames before disconnect, want 2", seen)
	}

	// The job finishes while the client is away.
	j, _ := mgr.Get(id)
	waitDone(t, j)

	full := getSSE(t, ts, id, "")
	tail := getSSE(t, ts, id, "1") // reconnect having seen frames 0 and 1
	if len(tail) != len(full)-2 {
		t.Fatalf("resumed %d frames, want %d (full %d minus the 2 seen)", len(tail), len(full)-2, len(full))
	}
	for i, fr := range tail {
		if fr != full[2+i] {
			t.Fatalf("resumed frame %d = %+v, want %+v", i, fr, full[2+i])
		}
	}
	if last := tail[len(tail)-1]; last.event != "done" {
		t.Fatalf("resumed stream ended with %q, want the terminal done frame", last.event)
	}
}
