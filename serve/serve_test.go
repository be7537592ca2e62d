package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hpas"
	"hpas/api"
)

// testDetector is trained once and shared: training simulates several
// labelled runs, the slowest part of these tests.
var (
	detOnce sync.Once
	testDet *hpas.Detector
	detErr  error
)

func detector(t *testing.T) *hpas.Detector {
	t.Helper()
	detOnce.Do(func() {
		ds, err := hpas.GenerateDataset(hpas.DatasetConfig{
			Apps:    []string{"CoMD"},
			Classes: []string{"none", "cpuoccupy"},
			Reps:    3,
			Window:  12,
			Warmup:  2,
			Seed:    31,
		})
		if err != nil {
			detErr = err
			return
		}
		testDet, detErr = hpas.TrainDetector(ds, 10, 31)
	})
	if detErr != nil {
		t.Fatalf("training test detector: %v", detErr)
	}
	return testDet
}

func newTestServer(t *testing.T) (*httptest.Server, *hpas.StreamManager) {
	t.Helper()
	mgr := hpas.NewStreamManager(hpas.StreamConfig{Workers: 2})
	ts := httptest.NewServer(New(mgr, detector(t), Config{}).Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts, mgr
}

// submit posts the job request and returns the created job's ID.
func submit(t *testing.T, ts *httptest.Server, body string) string {
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
	if st.ID == "" || st.State == "" {
		t.Fatalf("submit response missing id/state: %+v", st)
	}
	return st.ID
}

// streamLines reads the job's NDJSON stream to completion.
func streamLines(t *testing.T, ts *httptest.Server, id string) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// The acceptance-criteria integration test: submit a campaign, stream
// NDJSON until completion, check the injected anomaly surfaces as an
// event with plausible bounds, and check two same-seed submissions
// produce byte-identical streams despite running through the pool.
func TestServeStreamsInjectedAnomalyDeterministically(t *testing.T) {
	ts, _ := newTestServer(t)

	// CoMD with cpuoccupy active over [10,40) of a 50 s run; 10 s
	// disjoint windows align with the phase boundaries.
	body := `{"app":"CoMD","nodes":4,"seed":7,"duration":50,"campaign":"cpuoccupy@10-40:95","window":10}`

	id1 := submit(t, ts, body)
	lines1 := streamLines(t, ts, id1)
	id2 := submit(t, ts, body)
	lines2 := streamLines(t, ts, id2)
	if id1 == id2 {
		t.Fatalf("both submissions got job ID %s", id1)
	}

	var windows, events int
	var anomalyEvent *hpas.StreamEvent
	var last hpas.StreamMessage
	for _, ln := range lines1 {
		var msg hpas.StreamMessage
		if err := json.Unmarshal([]byte(ln), &msg); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		last = msg
		switch msg.Type {
		case "window":
			windows++
		case "event":
			events++
			if msg.Event.Class == "cpuoccupy" && anomalyEvent == nil {
				ev := *msg.Event
				anomalyEvent = &ev
			}
		}
	}
	if last.Type != "done" || last.State != hpas.StreamJobDone {
		t.Fatalf("stream did not end with done message: %+v", last)
	}
	if windows != 5 { // 50 s / 10 s disjoint windows
		t.Errorf("streamed %d windows, want 5", windows)
	}
	if anomalyEvent == nil {
		t.Fatalf("no cpuoccupy event in stream (%d events total):\n%s",
			events, strings.Join(lines1, "\n"))
	}
	// Plausible bounds: the event must overlap the injected [10,40)
	// window and stay inside the run.
	if anomalyEvent.Start >= 40 || anomalyEvent.End <= 10 ||
		anomalyEvent.Start < 0 || anomalyEvent.End > 50 {
		t.Errorf("cpuoccupy event [%g,%g) does not plausibly cover injection [10,40)",
			anomalyEvent.Start, anomalyEvent.End)
	}
	if anomalyEvent.Confidence <= 0 || anomalyEvent.Confidence > 1 {
		t.Errorf("event confidence %g out of (0,1]", anomalyEvent.Confidence)
	}

	// Determinism across the worker pool: byte-identical streams.
	if strings.Join(lines1, "\n") != strings.Join(lines2, "\n") {
		t.Errorf("same-seed jobs diverged:\n--- job 1\n%s\n--- job 2\n%s",
			strings.Join(lines1, "\n"), strings.Join(lines2, "\n"))
	}

	// Status endpoint agrees once the stream is done.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id1)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != string(hpas.StreamJobDone) {
		t.Errorf("job state = %s, want done", st.State)
	}
	if len(st.Events) == 0 {
		t.Error("status endpoint reports no events")
	}

	// Self-telemetry covers the two completed jobs.
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics struct {
		Service hpas.StreamStats `json:"service"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Service.JobsDone < 2 || metrics.Service.WindowsProcessed < 10 {
		t.Errorf("metrics = %+v, want >=2 jobs done and >=10 windows", metrics.Service)
	}
}

func TestServeSSEAndCancel(t *testing.T) {
	ts, _ := newTestServer(t)

	// A run long enough to cancel mid-flight.
	id := submit(t, ts, `{"seed":3,"duration":800000,"window":10}`)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	// Wait for the first event frame, then cancel the job.
	sc := bufio.NewScanner(resp.Body)
	var sawData bool
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			sawData = true
			break
		}
	}
	if !sawData {
		t.Fatal("no SSE data frame before stream end")
	}
	creq, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()

	// The stream must terminate with a done/cancelled frame.
	var lastData string
	deadline := time.After(60 * time.Second)
	done := make(chan struct{})
	go func() {
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				lastData = strings.TrimPrefix(sc.Text(), "data: ")
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("SSE stream did not terminate after cancel")
	}
	var msg hpas.StreamMessage
	if err := json.Unmarshal([]byte(lastData), &msg); err != nil {
		t.Fatalf("bad final SSE frame %q: %v", lastData, err)
	}
	if msg.Type != "done" || msg.State != hpas.StreamJobCancelled {
		t.Fatalf("final frame = %+v, want done/cancelled", msg)
	}
}

func TestServeRejectsBadSubmissions(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []string{
		`{"campaign":"cpuoccupy@10-40","phases":[{"label":"x"}]}`, // both forms
		`{"campaign":"garbage"}`,                                  // unparsable campaign
		`{"unknown_field":1}`,                                     // strict decoding
		`not json`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr api.Error
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Errorf("body %q: error response is not JSON: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		if apiErr.Error == "" {
			t.Errorf("body %q: 400 without an error message", body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
}

// The strict decoder names what it objected to: the unknown field, the
// offending type, or the size cap — not a bare "bad request".
func TestServeBadRequestDetail(t *testing.T) {
	ts, _ := newTestServer(t)
	post := func(body string) (int, api.Error) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var apiErr api.Error
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatalf("error response is not JSON: %v", err)
		}
		return resp.StatusCode, apiErr
	}

	if code, e := post(`{"bogus_field":1}`); code != http.StatusBadRequest || !strings.Contains(e.Error, "bogus_field") {
		t.Errorf("unknown field: %d %q, want 400 naming bogus_field", code, e.Error)
	}
	if code, e := post(`{"nodes":"four"}`); code != http.StatusBadRequest || !strings.Contains(e.Error, "nodes") {
		t.Errorf("type mismatch: %d %q, want 400 naming nodes", code, e.Error)
	}
	if code, e := post(`{"nodes":4} {"nodes":5}`); code != http.StatusBadRequest || e.Error == "" {
		t.Errorf("trailing garbage: %d %q, want 400 with detail", code, e.Error)
	}
	if code, e := post(``); code != http.StatusBadRequest || !strings.Contains(e.Error, "empty") {
		t.Errorf("empty body: %d %q, want 400 mentioning empty body", code, e.Error)
	}
	// A body over the 1 MiB cap is cut off at the reader, not buffered.
	big := `{"campaign":"` + strings.Repeat("x", 1<<20) + `"}`
	if code, e := post(big); code != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, "large") {
		t.Errorf("oversized body: %d %q, want 413", code, e.Error)
	}
}

func TestServeStructuredPhases(t *testing.T) {
	ts, _ := newTestServer(t)
	body := fmt.Sprintf(`{
		"app": "CoMD", "seed": 11, "duration": 40, "window": 10,
		"phases": [{
			"label": "cpuoccupy", "start": 10, "duration": 20,
			"specs": [{"name": "cpuoccupy", "node": 0, "cpu": 32, "intensity": 90}]
		}]
	}`)
	id := submit(t, ts, body)
	lines := streamLines(t, ts, id)
	var last hpas.StreamMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "done" || last.State != hpas.StreamJobDone {
		t.Fatalf("structured-phase job ended %+v, want done", last)
	}
}

// Regression: a compact-campaign request pinning the anomaly to CPU 0
// used to be silently rewritten to the default CPU 32, so CPU 0 could
// never be targeted over the API. The field is now a pointer, so only
// an omitted value picks the default.
func TestBuildSpecHonorsExplicitAnomalyCPUZero(t *testing.T) {
	s := newBareServer(t)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"campaign":"cpuoccupy@10-40:95","anomaly_cpu":0}`, 0},
		{`{"campaign":"cpuoccupy@10-40:95","anomaly_cpu":3}`, 3},
		{`{"campaign":"cpuoccupy@10-40:95"}`, 32},
	} {
		var req api.JobRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatal(err)
		}
		spec, err := s.BuildSpec(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if len(spec.Campaign.Phases) == 0 || len(spec.Campaign.Phases[0].Specs) == 0 {
			t.Fatalf("%s: no phases built", tc.body)
		}
		if got := spec.Campaign.Phases[0].Specs[0].CPU; got != tc.want {
			t.Errorf("%s: anomaly pinned to CPU %d, want %d", tc.body, got, tc.want)
		}
	}
}

func newBareServer(t *testing.T) *Server {
	t.Helper()
	mgr := hpas.NewStreamManager(hpas.StreamConfig{Workers: 1})
	t.Cleanup(mgr.Close)
	return New(mgr, detector(t), Config{})
}

// sseFrame is one parsed SSE event frame.
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

// getSSE opens the job's stream as an EventSource would and parses the
// frames, optionally resuming from a Last-Event-ID.
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
	return sseFrames(t, resp.Body)
}

// Regression: SSE frames carried no id: lines, so a reconnecting
// EventSource replayed the whole stream from scratch. Frames now carry
// the message's log index and Last-Event-ID resumes just past it.
func TestServeSSEIDsAndLastEventIDResume(t *testing.T) {
	ts, _ := newTestServer(t)
	id := submit(t, ts, `{"seed":5,"duration":30,"campaign":"cpuoccupy@10-20:95","window":10}`)

	full := getSSE(t, ts, id, "")
	if len(full) < 3 {
		t.Fatalf("full stream has %d frames, want at least 3", len(full))
	}
	for i, fr := range full {
		if fr.id != strconv.Itoa(i) {
			t.Fatalf("frame %d has id %q, want %d", i, fr.id, i)
		}
	}
	if last := full[len(full)-1]; last.event != "done" {
		t.Fatalf("final frame event = %q, want done", last.event)
	}

	// Reconnect as EventSource would, having seen all but the last two
	// frames: only those two replay, ids preserved.
	resumeAt := len(full) - 3
	tail := getSSE(t, ts, id, strconv.Itoa(resumeAt))
	if len(tail) != 2 {
		t.Fatalf("resumed stream has %d frames, want 2", len(tail))
	}
	for i, fr := range tail {
		want := full[resumeAt+1+i]
		if fr != want {
			t.Errorf("resumed frame %d = %+v, want %+v", i, fr, want)
		}
	}
}

// The acceptance scenario over HTTP: run jobs against a journal-backed
// server, tear it down, bring up a fresh server over the same data
// directory, and check the finished job is listed with its terminal
// state and events and that the NDJSON stream replays byte-identically.
func TestServeRestartRecoversJobs(t *testing.T) {
	dir := t.TempDir()
	jn, err := hpas.OpenStreamJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr := hpas.NewStreamManager(hpas.StreamConfig{Workers: 2, Store: jn})
	ts := httptest.NewServer(New(mgr, detector(t), Config{}).Handler())

	body := `{"app":"CoMD","nodes":4,"seed":7,"duration":50,"campaign":"cpuoccupy@10-40:95","window":10}`
	id := submit(t, ts, body)
	live := streamLines(t, ts, id)

	// Kill the first incarnation.
	ts.Close()
	mgr.Close()
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation over the same -data-dir.
	jn2, err := hpas.OpenStreamJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := jn2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := hpas.NewStreamManager(hpas.StreamConfig{Workers: 2, Store: jn2})
	if err := mgr2.Reopen(recovered); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(mgr2, detector(t), Config{}).Handler())
	t.Cleanup(func() {
		ts2.Close()
		mgr2.Close()
		jn2.Close()
	})

	resp, err := http.Get(ts2.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered job status code %d, want 200", resp.StatusCode)
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != string(hpas.StreamJobDone) {
		t.Errorf("recovered job state = %s, want done", st.State)
	}
	if len(st.Events) == 0 {
		t.Error("recovered job lost its events")
	}
	if st.Started == nil || st.Finished == nil {
		t.Error("recovered job lost its timestamps")
	}

	replay := streamLines(t, ts2, id)
	if strings.Join(replay, "\n") != strings.Join(live, "\n") {
		t.Errorf("recovered stream differs from live run:\n--- live\n%s\n--- replay\n%s",
			strings.Join(live, "\n"), strings.Join(replay, "\n"))
	}

	// The recovered service accepts new work under a fresh ID.
	id2 := submit(t, ts2, `{"seed":3,"duration":20,"window":10}`)
	if id2 == id {
		t.Fatalf("new submission reused recovered ID %s", id)
	}
	streamLines(t, ts2, id2)
}
