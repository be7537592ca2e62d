package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpas"
	"hpas/api"
	"hpas/serve"
)

// gappyCluster is a router over one in-process shard whose manager
// drops slow followers forward after a 2-message lag — the fixture for
// resume-through-the-proxy semantics.
func gappyCluster(t *testing.T) (*httptest.Server, *localCluster) {
	t.Helper()
	det := detector(t)
	mgr := hpas.NewStreamManager(hpas.StreamConfig{Workers: 2, FollowLimit: 2})
	l := NewLocal(mgr, serve.New(mgr, det, serve.Config{}))
	rt, err := NewRouter([]Member{{Name: "shard0", Backend: l}}, Config{
		CheckInterval: 100 * time.Millisecond,
		FailAfter:     2,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &localCluster{
		rt:     rt,
		names:  []string{"shard0"},
		locals: map[string]*Local{"shard0": l},
		mgrs:   map[string]*hpas.StreamManager{"shard0": mgr},
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		if cerr := rt.Close(); cerr != nil {
			t.Errorf("router close: %v", cerr)
		}
	})
	return ts, c
}

// submitHTTP posts a job through the router and returns its global ID.
func submitHTTP(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %+v", resp.StatusCode, st)
	}
	return st.ID
}

type sseFrame struct {
	id    string
	event string
	data  string
}

func sseFrames(t *testing.T, body io.Reader) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur != (sseFrame{}) {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// getSSE opens the routed stream as an EventSource would.
func getSSE(t *testing.T, ts *httptest.Server, id, lastEventID string) []sseFrame {
	t.Helper()
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	return sseFrames(t, resp.Body)
}

// waitForHead blocks until the shard-local job log holds n messages.
func waitForHead(t *testing.T, mgr *hpas.StreamManager, localID string, n int) {
	t.Helper()
	j, ok := mgr.Get(localID)
	if !ok {
		t.Fatalf("job %s vanished", localID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for msg := range j.FollowFrom(ctx, 0) {
		if msg.Seq >= n-1 {
			return
		}
	}
	t.Fatalf("job %s log never reached %d messages", localID, n)
}

// The proxy hop must preserve the single-instance resume contract,
// including its hardest edge: a Last-Event-ID inside a region the
// live follow limit already dropped past answers with a gap frame
// whose id is the last skipped index, streams on contiguously, and —
// once the job is finished — replays the same region in full, because
// only live lag is bounded, never the log.
func TestRouterSSEResumeThroughProxyInsideGapSkippedRegion(t *testing.T) {
	ts, c := gappyCluster(t)
	gid := submitHTTP(t, ts, `{"seed":9,"duration":800000,"window":10}`)

	mgr := c.mgrs["shard0"]
	jobs := mgr.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("shard tracks %d jobs, want 1", len(jobs))
	}
	waitForHead(t, mgr, jobs[0].ID(), 10)

	// Live resume from index 4: the head is ≥10 with follow limit 2,
	// so 4..head-3 are gone from the live window.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+gid+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	readFrame := func() (sseFrame, bool) {
		var f sseFrame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if f.data != "" {
					return f, true
				}
			case strings.HasPrefix(line, "id: "):
				f.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.data = strings.TrimPrefix(line, "data: ")
			}
		}
		return f, false
	}
	first, ok := readFrame()
	if !ok {
		t.Fatal("proxied stream ended before any frame")
	}
	if first.event != "gap" {
		t.Fatalf("first resumed frame = %+v, want a gap frame through the proxy", first)
	}
	var gap hpas.StreamMessage
	if err := json.Unmarshal([]byte(first.data), &gap); err != nil {
		t.Fatal(err)
	}
	if gap.Dropped <= 0 {
		t.Fatalf("gap frame reports %d dropped, want > 0", gap.Dropped)
	}
	gapID, _ := strconv.Atoi(first.id)
	if gapID != 4+gap.Dropped-1 {
		t.Fatalf("gap id %d does not equal last skipped index %d", gapID, 4+gap.Dropped-1)
	}
	second, ok := readFrame()
	if !ok {
		t.Fatal("proxied stream ended right after the gap frame")
	}
	if second.id != strconv.Itoa(gapID+1) || second.event == "gap" {
		t.Fatalf("post-gap frame = %+v, want the real message at id %d", second, gapID+1)
	}
	resp.Body.Close()

	// Gap frames are synthesized per follower and never enter the
	// shared-frame cache. A follower that reconnects with Last-Event-ID
	// equal to the gap frame's id must resume strictly past it — its
	// first frame (real or a fresh gap) carries a larger id, and the
	// already-acknowledged index never comes back.
	req2, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+gid+"/stream", nil)
	req2.Header.Set("Accept", "text/event-stream")
	req2.Header.Set("Last-Event-ID", first.id)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	sc = bufio.NewScanner(resp2.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	refirst, ok := readFrame()
	if !ok {
		t.Fatal("reconnect at the gap id got no frames")
	}
	reID, err := strconv.Atoi(refirst.id)
	if err != nil {
		t.Fatalf("reconnect frame id %q is not an index", refirst.id)
	}
	if reID <= gapID {
		t.Fatalf("reconnect with Last-Event-ID %d re-delivered id %d (duplicate frame across the proxy)", gapID, reID)
	}
	resp2.Body.Close()

	// Cancel through the router and wait for the terminal state.
	creq, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+gid, nil)
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	waitState(t, c, gid, api.JobStatus.Final)

	// Finished job, same resume index: contiguous full replay, no gap
	// frames, terminal done — identical to the single-instance answer.
	frames := getSSE(t, ts, gid, "3")
	if len(frames) == 0 {
		t.Fatal("post-finish resume through the proxy returned no frames")
	}
	for i, fr := range frames {
		if fr.event == "gap" {
			t.Fatalf("finished-job replay emitted a gap frame through the proxy: %+v", fr)
		}
		if fr.id != strconv.Itoa(4+i) {
			t.Fatalf("replay frame %d has id %s, want %d (contiguous)", i, fr.id, 4+i)
		}
	}
	if last := frames[len(frames)-1]; last.event != "done" {
		t.Fatalf("replay ended with %q, want done", last.event)
	}

	// The replay above warmed the shard's frame cache; resuming from the
	// last frame before done must deliver exactly the done frame — once.
	tail := getSSE(t, ts, gid, frames[len(frames)-2].id)
	if len(tail) != 1 || tail[0] != frames[len(frames)-1] {
		t.Fatalf("resume from the last cached frame = %+v, want exactly the done frame", tail)
	}
}

// A client that disconnects from the router mid-stream and reconnects
// after the job finished receives exactly the frames it missed.
func TestRouterSSEResumeAfterJobFinished(t *testing.T) {
	c := newLocalCluster(t, 2, 2)
	ts := httptest.NewServer(c.rt.Handler())
	t.Cleanup(ts.Close)
	gid := submitHTTP(t, ts, `{"seed":5,"duration":30,"campaign":"cpuoccupy@10-20:95","window":10}`)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+gid+"/stream", nil)
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
	resp.Body.Close() // drop the link with the job still running
	if seen < 2 {
		t.Fatalf("saw %d frames before disconnect, want 2", seen)
	}

	waitState(t, c, gid, api.JobStatus.Final)

	full := getSSE(t, ts, gid, "")
	tail := getSSE(t, ts, gid, "1")
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
