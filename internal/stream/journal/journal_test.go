package journal

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpas/internal/cluster"
	"hpas/internal/core"
	"hpas/internal/diagnose"
	"hpas/internal/faults"
	"hpas/internal/features"
	"hpas/internal/ml"
	"hpas/internal/stream"
)

// userMean mirrors the stream package's test stub: it predicts "hog"
// when the user::procstat mean over the window exceeds 50% of one CPU
// (user::procstat is the last of the 10 default metrics in sorted
// order, so its mean sits at index 9*features.Count()).
type userMean struct{}

func (userMean) Fit(*ml.Dataset, []int) error { return nil }
func (userMean) Predict(x []float64) int {
	if x[9*features.Count()] > 50 {
		return 1
	}
	return 0
}

func stubDetector() *diagnose.Detector {
	return &diagnose.Detector{
		Model:   userMean{},
		Classes: []string{"none", "hog"},
		Window:  5,
	}
}

func hogSpec(seed uint64, fixedSeconds float64) stream.JobSpec {
	return stream.JobSpec{
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
		Pipeline: stream.PipelineConfig{Detector: stubDetector()},
	}
}

func drain(t *testing.T, j *stream.Job) []stream.Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var msgs []stream.Message
	for m := range j.Follow(ctx) {
		msgs = append(msgs, m)
	}
	if ctx.Err() != nil {
		t.Fatalf("job %s stream did not complete: %v", j.ID(), ctx.Err())
	}
	return msgs
}

func marshal(t *testing.T, msgs []stream.Message) string {
	t.Helper()
	b, err := json.Marshal(msgs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The acceptance round-trip: run a job against the journal, tear the
// whole stack down, reopen, and check the recovered job serves the same
// terminal state, events, and byte-identical stream — and that new
// submissions continue after the recovered ID space.
func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jn, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := stream.NewManager(stream.Config{Workers: 1, Store: jn})
	j, err := m.Submit(hogSpec(42, 30))
	if err != nil {
		t.Fatal(err)
	}
	live := drain(t, j)
	if st, err := j.State(); st != stream.JobDone {
		t.Fatalf("live job state = %s (err %v), want done", st, err)
	}
	liveEvents := j.Events()
	id := j.ID()
	m.Close()
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh journal and manager over the same directory.
	jn2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	recovered, err := jn2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].ID != id {
		t.Fatalf("recovered %+v, want exactly job %s", recovered, id)
	}
	m2 := stream.NewManager(stream.Config{Workers: 1, Store: jn2})
	defer m2.Close()
	if err := m2.Reopen(recovered); err != nil {
		t.Fatal(err)
	}

	j2, ok := m2.Get(id)
	if !ok {
		t.Fatalf("job %s not found after reopen", id)
	}
	if st, err := j2.State(); st != stream.JobDone || err != nil {
		t.Fatalf("recovered state = %s (err %v), want done", st, err)
	}
	if _, started, finished := j2.Times(); started.IsZero() || finished.IsZero() {
		t.Error("recovered job lost its start/finish times")
	}
	// Byte-identical replay, both as a snapshot and through Follow.
	if got := marshal(t, j2.Messages()); got != marshal(t, live) {
		t.Errorf("recovered log differs from live run:\nlive %s\ngot  %s", marshal(t, live), got)
	}
	if got := marshal(t, drain(t, j2)); got != marshal(t, live) {
		t.Error("Follow replay of recovered job differs from live run")
	}
	if got := marshal2(t, j2.Events()); got != marshal2(t, liveEvents) {
		t.Errorf("recovered events %s != live %s", got, marshal2(t, liveEvents))
	}
	if st := m2.Stats(); st.JobsSubmitted != 1 || st.JobsDone != 1 || st.JournalErrors != 0 {
		t.Errorf("stats after reopen = %+v, want 1 submitted/done and no journal errors", st)
	}

	// New work continues past the recovered ID.
	j3, err := m2.Submit(hogSpec(7, 30))
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID() == id {
		t.Fatalf("new submission reused recovered ID %s", id)
	}
	drain(t, j3)
}

func marshal2(t *testing.T, evs []stream.Event) string {
	t.Helper()
	b, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A crash mid-write leaves a torn final record; Recover must keep the
// records before it, truncate the tail, and leave the file appendable.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	jn, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC().Round(time.Millisecond)
	spec := hogSpec(1, 30)
	if err := jn.Create("j0001", now, spec); err != nil {
		t.Fatal(err)
	}
	if err := jn.State("j0001", stream.JobRunning, "", now); err != nil {
		t.Fatal(err)
	}
	w := stream.Window{Node: 0, From: 0, To: 5, Class: "none", Confidence: 1}
	for i := 0; i < 3; i++ {
		if err := jn.Append("j0001", i, stream.Message{Type: "window", Window: &w}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: half a record, no terminating newline.
	path := filepath.Join(dir, "j0001"+suffix)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"msg","seq":3,"msg":{"type":"win`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	torn, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	jn2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	recovered, err := jn2.Recover()
	if err != nil {
		t.Fatalf("recover over torn tail failed: %v", err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(recovered))
	}
	rj := recovered[0]
	if rj.State != stream.JobRunning || rj.Encoded.Len() != 3 {
		t.Fatalf("recovered job = state %s with %d messages, want running with 3", rj.State, rj.Encoded.Len())
	}
	if !rj.Created.Equal(now) || !rj.Started.Equal(now) {
		t.Errorf("recovered times %v/%v, want %v", rj.Created, rj.Started, now)
	}
	fixed, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Size() >= torn.Size() {
		t.Errorf("torn tail not truncated: %d >= %d bytes", fixed.Size(), torn.Size())
	}

	// Reopen finalizes the interrupted job and journals that, so a third
	// incarnation recovers it as failed directly.
	m := stream.NewManager(stream.Config{Workers: 1, Store: jn2})
	if err := m.Reopen(recovered); err != nil {
		t.Fatal(err)
	}
	j, _ := m.Get("j0001")
	st, jerr := j.State()
	if st != stream.JobFailed || !errors.Is(jerr, stream.ErrInterrupted) {
		t.Fatalf("interrupted job state = %s (err %v), want failed/ErrInterrupted", st, jerr)
	}
	msgs := drain(t, j)
	if last := msgs[len(msgs)-1]; last.Type != "done" || last.State != stream.JobFailed {
		t.Fatalf("interrupted job's final message = %+v, want done/failed", last)
	}
	m.Close()
	if err := jn2.Close(); err != nil {
		t.Fatal(err)
	}

	jn3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn3.Close()
	again, err := jn3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || again[0].State != stream.JobFailed || again[0].Encoded.Len() != 4 {
		t.Fatalf("second recovery = %+v, want failed with 4 messages", again[0])
	}
}

// An empty or wholly-torn file must not surface a phantom job.
func TestRecoverSkipsEmptyAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "j0009"+suffix), []byte("garbage without newline"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	jn, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	recovered, err := jn.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("recovered %+v from garbage, want nothing", recovered)
	}
	if fi, err := os.Stat(filepath.Join(dir, "j0009"+suffix)); err != nil || fi.Size() != 0 {
		t.Errorf("garbage file not truncated to empty: %v size %d", err, fi.Size())
	}
}

func TestJournalRejectsUnsafeIDs(t *testing.T) {
	jn, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	for _, id := range []string{"", "../escape", "a/b", "a.b"} {
		if err := jn.Append(id, 0, stream.Message{Type: "done"}); err == nil {
			t.Errorf("id %q accepted", id)
		}
	}
}

// A journal file whose spec record never made it to disk (lost Create
// on a faulty disk, or an old build's Cancel/Create race) must still
// recover: the history is valid, and Created falls back to the earliest
// timestamp the log does carry.
func TestRecoverToleratesMissingSpecRecord(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().UTC().Round(time.Millisecond)
	lines := []string{
		`{"k":"state","at":"` + now.Format(time.RFC3339Nano) + `","state":"running"}`,
		`{"k":"msg","seq":0,"msg":{"type":"window","window":{"node":0,"from":0,"to":5,"class":"none","confidence":1}}}`,
		`{"k":"state","at":"` + now.Add(time.Second).Format(time.RFC3339Nano) + `","state":"cancelled"}`,
	}
	path := filepath.Join(dir, "j0002"+suffix)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A fault-injected torn tail on top: recovery must shed it too.
	if err := faults.ShortWrite(path, []byte(`{"k":"msg","seq":1,"msg":{"type":"win`)); err != nil {
		t.Fatal(err)
	}

	jn, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	recovered, err := jn.Recover()
	if err != nil {
		t.Fatalf("recover without a spec record failed: %v", err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(recovered))
	}
	rj := recovered[0]
	if rj.ID != "j0002" || rj.State != stream.JobCancelled || rj.Encoded.Len() != 1 {
		t.Fatalf("recovered job = %+v, want cancelled j0002 with 1 message", rj)
	}
	if !rj.Created.Equal(now) {
		t.Errorf("Created = %v, want fallback to Started %v", rj.Created, now)
	}

	// Terminal records only (no running state): fall through to Finished.
	fin := filepath.Join(dir, "j0003"+suffix)
	line := `{"k":"state","at":"` + now.Format(time.RFC3339Nano) + `","state":"cancelled"}` + "\n"
	if err := os.WriteFile(fin, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, err = jn.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(recovered))
	}
	if rj := recovered[1]; rj.ID != "j0003" || !rj.Created.Equal(now) {
		t.Errorf("spec-less terminal job = %+v, want Created = Finished %v", rj, now)
	}
}

// faults.Tear reproduces the crash-mid-write signature on a real
// journal file; recovery must truncate back to the last whole record.
func TestRecoverAfterInjectedTear(t *testing.T) {
	dir := t.TempDir()
	jn, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	if err := jn.Create("j0001", now, hogSpec(1, 30)); err != nil {
		t.Fatal(err)
	}
	w := stream.Window{Node: 0, From: 0, To: 5, Class: "none", Confidence: 1}
	for i := 0; i < 3; i++ {
		if err := jn.Append("j0001", i, stream.Message{Type: "window", Window: &w}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear half of the final record off, as a crash mid-write would.
	path := filepath.Join(dir, "j0001"+suffix)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.Tear(path, 40); err != nil {
		t.Fatal(err)
	}

	jn2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	recovered, err := jn2.Recover()
	if err != nil {
		t.Fatalf("recover over injected tear failed: %v", err)
	}
	if len(recovered) != 1 || recovered[0].Encoded.Len() != 2 {
		t.Fatalf("recovered %+v, want j0001 with the 2 whole messages", recovered)
	}
	if after, err := os.Stat(path); err != nil || after.Size() >= fi.Size() {
		t.Errorf("torn record not truncated: %v, %d >= %d", err, after.Size(), fi.Size())
	}
}

// recoverOne writes body as job j0001's journal, recovers it and
// reopens it into a fresh manager.
func recoverOne(t *testing.T, body string) (*stream.Manager, *stream.Job) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "j0001"+suffix), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	jn, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := jn.Close(); err != nil {
			t.Error(err)
		}
	})
	recovered, err := jn.Recover()
	if err != nil {
		t.Fatal(err)
	}
	m := stream.NewManager(stream.Config{Workers: 1, Store: jn})
	t.Cleanup(m.Close)
	if err := m.Reopen(recovered); err != nil {
		t.Fatal(err)
	}
	j, ok := m.Get("j0001")
	if !ok {
		t.Fatal("j0001 not reopened")
	}
	return m, j
}

// frames drains a frame follower of j from seq from.
func frames(t *testing.T, j *stream.Job, from int) []stream.Frame {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var out []stream.Frame
	for f := range j.FollowFramesFrom(ctx, from) {
		out = append(out, f)
	}
	if ctx.Err() != nil {
		t.Fatalf("job %s frames did not complete: %v", j.ID(), ctx.Err())
	}
	return out
}

// A journal holding numbers encoding/json accepts but never writes —
// a trailing zero, an exponent, an empty omitempty field — replays
// exactly json.Marshal of what json.Unmarshal reads from each record:
// recovery re-encodes instead of copying such a message.
func TestRecoverReencodesNonCanonicalMessages(t *testing.T) {
	// Each msg record is canonical but for one token.
	w := func(seq int, node, from, to, class, conf string) string {
		return `{"k":"msg","seq":` + strconv.Itoa(seq) + `,"msg":{"type":"window","window":{"node":` + node +
			`,"from":` + from + `,"to":` + to + `,"class":"` + class + `","confidence":` + conf + `}}}`
	}
	lines := []string{
		`{"k":"spec","at":"2026-01-02T03:04:05Z","spec":{}}`,
		`{"k":"msg","msg":{"type":"window","window":{"node":0,"from":1.0,"to":11,"class":"none","confidence":0.9}}}`,
		w(1, "0", "1", "0.950", "none", "0.9"),
		w(2, "0", "1", "11", "none", "1e1"),
		w(3, "0", "0.0000001", "11", "none", "0.9"),
		w(4, "0", "1", "100000000000000000000000", "none", "0.9"),
		w(5, "0", "1", "11", "a&b", "0.9"),
		w(6, "-0", "1", "11", "none", "0.9"),
		w(7, "0", "1", "11", "none", "0.10000000000000001"),
		`{"k":"msg","at":"0001-01-01T00:00:00Z","seq":8,"msg":{"type":"event","event":{"node":1,"class":"hog","start":1E2,"end":102,"windows":3,"confidence":0.5}}}`,
		`{"k":"msg","seq":9,"msg":{"type":"gap","dropped":0}}`,
		`{"k":"msg","seq":10,"msg":{"type":"done","state":""}}`,
		`{"k":"msg","seq":11,"msg":{"type":"done","state":"done","error":""}}`,
		`{"k":"state","at":"2026-01-02T03:04:06Z","state":"done"}`,
	}
	_, j := recoverOne(t, strings.Join(lines, "\n")+"\n")
	got := frames(t, j, 0)
	msgLines := lines[1 : len(lines)-1]
	if len(got) != len(msgLines) {
		t.Fatalf("replayed %d frames, want %d", len(got), len(msgLines))
	}
	for i, line := range msgLines {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rec.Msg)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[i].Data) != string(want) || got[i].Type != rec.Msg.Type {
			t.Errorf("frame %d = %s %s, want %s %s", i, got[i].Type, got[i].Data, rec.Msg.Type, want)
		}
	}
}

// A restored job serves its journal's bytes: a full replay and a resume
// from seq 900 of a recovered 1001-message job encode nothing, and
// serve exactly what the live job served.
func TestRestoredJobReplaysWithoutEncoding(t *testing.T) {
	const n = 1001
	var live []stream.Frame
	var body strings.Builder
	body.WriteString(`{"k":"spec","at":"2026-01-02T03:04:05Z","spec":{}}` + "\n")
	for i := 0; i < n; i++ {
		m := stream.Message{Type: "window", Window: &stream.Window{Node: i % 4, From: float64(i) / 3, To: float64(i)/3 + 10, Class: "cpuoccupy", Confidence: 1 / float64(i+1)}}
		if i == n-1 {
			m = stream.Message{Type: "done", State: stream.JobDone}
		}
		line, err := encodeRecord(nil, &record{Kind: "msg", Seq: i, Msg: &m})
		if err != nil {
			t.Fatal(err)
		}
		body.Write(append(line, '\n'))
		data, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, stream.Frame{Seq: i, Type: m.Type, Data: data})
	}
	body.WriteString(`{"k":"state","at":"2026-01-02T03:04:06Z","state":"done"}` + "\n")

	m, j := recoverOne(t, body.String())
	before := m.Stats().FramesEncoded
	for _, from := range []int{0, 900} {
		got := frames(t, j, from)
		if len(got) != n-from {
			t.Fatalf("replay from %d: %d frames, want %d", from, len(got), n-from)
		}
		for i, f := range got {
			want := live[from+i]
			if f.Seq != want.Seq || f.Type != want.Type || string(f.Data) != string(want.Data) {
				t.Fatalf("replay from %d: frame %d = %d %s %s, want %d %s %s", from, i, f.Seq, f.Type, f.Data, want.Seq, want.Type, want.Data)
			}
		}
	}
	st := m.Stats()
	if st.FramesEncoded != before {
		t.Errorf("replaying a restored job encoded %d messages, want 0", st.FramesEncoded-before)
	}
	if want := int64(n + n - 900); st.FrameCacheHits != want {
		t.Errorf("frames served from the log = %d, want %d", st.FrameCacheHits, want)
	}
}
