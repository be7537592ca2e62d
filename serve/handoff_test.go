package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hpas"
	"hpas/api"
)

// submitKeyed posts a job request under an idempotency key and returns
// the created job's ID.
func submitKeyed(t *testing.T, ts *httptest.Server, body, key string) string {
	t.Helper()
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.IdempotencyKeyHeader, key)
	resp, err := http.DefaultClient.Do(req)
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

// getHandoff fetches the job's handoff record stream from the given
// offset, returning the body, the total-record header, and the status.
func getHandoff(t *testing.T, ts *httptest.Server, id string, from int) ([]byte, int, int) {
	t.Helper()
	url := ts.URL + "/v1/handoff/" + id
	if from > 0 {
		url += "?from=" + strconv.Itoa(from)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	total, _ := strconv.Atoi(resp.Header.Get(api.HandoffRecordsHeader))
	return body, total, resp.StatusCode
}

// Handoff serves finished history only: a live job answers 409 until it
// reaches a terminal state (cancellation counts), then exports.
func TestServeHandoffGetRequiresTerminalState(t *testing.T) {
	ts, mgr := newTestServer(t)
	id := submit(t, ts, `{"seed":9,"duration":800000,"window":10}`)

	if _, _, code := getHandoff(t, ts, id, 0); code != http.StatusConflict {
		t.Fatalf("handoff of a live job = %d, want 409", code)
	}
	if _, _, code := getHandoff(t, ts, "nope", 0); code != http.StatusNotFound {
		t.Fatalf("handoff of an unknown job = %d, want 404", code)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	j, _ := mgr.Get(id)
	waitDone(t, j)

	body, total, code := getHandoff(t, ts, id, 0)
	if code != http.StatusOK || total == 0 || len(body) == 0 {
		t.Fatalf("handoff of a cancelled job = %d (total %d, %d bytes), want 200 with records", code, total, len(body))
	}
}

// The cross-shard acceptance path: export a finished job's records
// (including an interrupted-then-resumed transfer), adopt them on a
// second server, and check the adopter serves a byte-identical SSE
// replay — Last-Event-ID resume included. A second adoption under a key
// the adopter already holds dedupes instead of duplicating.
func TestServeHandoffAdoptReplaysByteIdentically(t *testing.T) {
	src, srcMgr := newTestServer(t)
	id := submitKeyed(t, src, `{"seed":4,"duration":30,"window":10}`, "handoff-http-1")
	j, _ := srcMgr.Get(id)
	waitDone(t, j)

	full, total, code := getHandoff(t, src, id, 0)
	if code != http.StatusOK {
		t.Fatalf("handoff export = %d, want 200", code)
	}
	if n := bytes.Count(full, []byte{'\n'}); n != total {
		t.Fatalf("export carries %d lines, header says %d", n, total)
	}

	// Interrupted transfer: take the first half of the records, then
	// re-request from that offset; the concatenation must equal the
	// uninterrupted export byte for byte.
	k := total / 2
	lines := bytes.SplitAfter(full, []byte{'\n'})
	head := bytes.Join(lines[:k], nil)
	tail, _, code := getHandoff(t, src, id, k)
	if code != http.StatusOK {
		t.Fatalf("handoff resume = %d, want 200", code)
	}
	if got := append(append([]byte(nil), head...), tail...); !bytes.Equal(got, full) {
		t.Fatal("resumed transfer differs from the uninterrupted export")
	}
	if _, _, code := getHandoff(t, src, id, total+5); code != http.StatusOK {
		t.Fatalf("handoff from past-the-end offset = %d, want 200 (empty)", code)
	}

	// Adopt on a fresh server.
	dst, _ := newTestServer(t)
	resp, err := http.Post(dst.URL+"/v1/handoff/"+id, "application/x-ndjson", bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	var adopted api.JobStatus
	if derr := json.NewDecoder(resp.Body).Decode(&adopted); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("adopt = %d (%+v), want 201", resp.StatusCode, adopted)
	}
	if adopted.State != string(hpas.StreamJobDone) {
		t.Fatalf("adopted job state = %s, want done", adopted.State)
	}

	// Byte-identical replay: full stream and a Last-Event-ID resume.
	srcFrames := getSSE(t, src, id, "")
	dstFrames := getSSE(t, dst, adopted.ID, "")
	if len(srcFrames) == 0 || len(srcFrames) != len(dstFrames) {
		t.Fatalf("replay lengths differ: src %d, dst %d", len(srcFrames), len(dstFrames))
	}
	for i := range srcFrames {
		if srcFrames[i] != dstFrames[i] {
			t.Fatalf("replay frame %d differs:\n src %+v\n dst %+v", i, srcFrames[i], dstFrames[i])
		}
	}
	srcResume := getSSE(t, src, id, "2")
	dstResume := getSSE(t, dst, adopted.ID, "2")
	if len(srcResume) != len(dstResume) {
		t.Fatalf("resumed replay lengths differ: src %d, dst %d", len(srcResume), len(dstResume))
	}
	for i := range srcResume {
		if srcResume[i] != dstResume[i] {
			t.Fatalf("resumed frame %d differs:\n src %+v\n dst %+v", i, srcResume[i], dstResume[i])
		}
	}

	// Re-adopting the same history dedupes on the idempotency key.
	resp2, err := http.Post(dst.URL+"/v1/handoff/"+id, "application/x-ndjson", bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	var again api.JobStatus
	if derr := json.NewDecoder(resp2.Body).Decode(&again); derr != nil {
		t.Fatal(derr)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get(api.IdempotencyReplayedHeader) != "true" {
		t.Fatalf("second adopt = %d (replayed %q), want 200 + replayed",
			resp2.StatusCode, resp2.Header.Get(api.IdempotencyReplayedHeader))
	}
	if again.ID != adopted.ID {
		t.Fatalf("second adopt returned job %s, want the first adoption %s", again.ID, adopted.ID)
	}
}

// A torn transfer must not be adopted: truncating the body mid-record
// is a 400, and nothing is imported.
func TestServeHandoffPostRefusesTornBody(t *testing.T) {
	src, srcMgr := newTestServer(t)
	id := submit(t, src, `{"seed":6,"duration":30,"window":10}`)
	j, _ := srcMgr.Get(id)
	waitDone(t, j)
	full, _, _ := getHandoff(t, src, id, 0)

	dst, dstMgr := newTestServer(t)
	resp, err := http.Post(dst.URL+"/v1/handoff/"+id, "application/x-ndjson",
		bytes.NewReader(full[:len(full)-9]))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn adopt = %d, want 400", resp.StatusCode)
	}
	if jobs := dstMgr.Jobs(); len(jobs) != 0 {
		t.Fatalf("torn adopt imported %d job(s)", len(jobs))
	}
}
