package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"hpas/internal/stream"
)

// refRecoverFile is recoverFile as it was before the one-pass decoder:
// every line through json.Unmarshal, the log kept as structs. The fuzz
// targets hold the real recovery to it, the encoded log to json.Marshal
// of the reference's messages.
func refRecoverFile(path, id string) (rj stream.RecoveredJob, ok bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return rj, false, fmt.Errorf("journal: %w", err)
	}
	rj.ID = id
	rj.State = stream.JobQueued
	good := 0
	for good < len(data) {
		nl := bytes.IndexByte(data[good:], '\n')
		if nl < 0 {
			break
		}
		var rec record
		if json.Unmarshal(data[good:good+nl], &rec) != nil {
			break
		}
		refApply(&rj, &rec, &ok)
		good += nl + 1
	}
	if good < len(data) {
		if err := os.Truncate(path, int64(good)); err != nil {
			return rj, false, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
		}
	}
	if ok && rj.Created.IsZero() {
		switch {
		case !rj.Started.IsZero():
			rj.Created = rj.Started
		case !rj.Finished.IsZero():
			rj.Created = rj.Finished
		}
	}
	return rj, ok, nil
}

// refApply is apply as it was before the log was kept encoded: a msg
// record's message is copied into Log.
func refApply(rj *stream.RecoveredJob, rec *record, ok *bool) {
	if rec.Kind != "msg" {
		if err := (&recordDecoder{}).apply(rj, rec, ok); err != nil {
			panic(err) // spec and state records never fail
		}
		return
	}
	if rec.Msg != nil {
		*ok = true
		rj.Log = append(rj.Log, *rec.Msg)
	}
}

// refReplay is Replay as it was before the one-pass decoder.
func refReplay(r io.Reader) (stream.RecoveredJob, int, error) {
	var rj stream.RecoveredJob
	rj.State = stream.JobQueued
	n := 0
	ok := false
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return rj, n, fmt.Errorf("journal: read handoff record %d: %w", n, err)
		}
		tail := err == io.EOF
		line = bytes.TrimSuffix(line, []byte{'\n'})
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(bytes.TrimSpace(line)) > 0 {
			var rec record
			if uerr := json.Unmarshal(line, &rec); uerr != nil {
				return rj, n, fmt.Errorf("journal: handoff record %d torn or corrupt: %v", n, uerr)
			}
			refApply(&rj, &rec, &ok)
			n++
		}
		if tail {
			break
		}
	}
	if !ok {
		return rj, n, fmt.Errorf("journal: handoff carried no records")
	}
	if rj.Created.IsZero() {
		switch {
		case !rj.Started.IsZero():
			rj.Created = rj.Started
		case !rj.Finished.IsZero():
			rj.Created = rj.Finished
		}
	}
	return rj, n, nil
}

// journalSeeds are the journal bodies of TestTornTailRecovery,
// TestRecoverToleratesMissingSpecRecord and TestRecoverAfterInjectedTear,
// whole and torn, plus one line of every message shape in the old
// writer's form, with the zero "at", after a body in the current form.
func journalSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	dir := tb.TempDir()
	jn, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 6e6, time.UTC)
	if err := jn.Create("j0001", at, hogSpec(1, 30)); err != nil {
		tb.Fatal(err)
	}
	if err := jn.State("j0001", stream.JobRunning, "", at); err != nil {
		tb.Fatal(err)
	}
	w := stream.Window{Node: 0, From: 0, To: 5, Class: "none", Confidence: 1}
	for i := 0; i < 3; i++ {
		if err := jn.Append("j0001", i, stream.Message{Type: "window", Window: &w}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		tb.Fatal(err)
	}
	whole, err := os.ReadFile(filepath.Join(dir, "j0001"+suffix))
	if err != nil {
		tb.Fatal(err)
	}
	var shapes []byte
	for i, m := range everyShape() {
		line, err := json.Marshal(record{Kind: "msg", Seq: i, Msg: &m})
		if err != nil {
			tb.Fatal(err)
		}
		shapes = append(append(shapes, line...), '\n')
	}
	stamp := at.Format(time.RFC3339Nano)
	missingSpec := strings.Join([]string{
		`{"k":"state","at":"` + stamp + `","state":"running"}`,
		`{"k":"msg","seq":0,"msg":{"type":"window","window":{"node":0,"from":0,"to":5,"class":"none","confidence":1}}}`,
		`{"k":"state","at":"` + stamp + `","state":"cancelled"}`,
	}, "\n") + "\n"
	return [][]byte{
		whole,
		append(slices.Clip(whole), `{"k":"msg","seq":3,"msg":{"type":"win`...),
		whole[:len(whole)-40],
		[]byte(missingSpec),
		[]byte(missingSpec + `{"k":"msg","seq":1,"msg":{"type":"win`),
		[]byte(`{"k":"state","at":"` + stamp + `","state":"cancelled"}` + "\n"),
		append(slices.Clip(whole), shapes...),
		[]byte("garbage without newline"),
		[]byte("\n\n  \n"),
	}
}

// Recovery over arbitrary file contents matches the Unmarshal-only
// reference: no panic, the same job (or none), and the same truncated
// file length.
func FuzzRecover(f *testing.F) {
	for _, seed := range journalSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir, refDir := t.TempDir(), t.TempDir()
		path, refPath := filepath.Join(dir, "j0001"+suffix), filepath.Join(refDir, "j0001"+suffix)
		for _, p := range []string{path, refPath} {
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, wantOK, err := refRecoverFile(refPath, "j0001")
		if err != nil {
			t.Fatal(err)
		}
		jn, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := jn.Recover()
		if cerr := jn.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !wantOK && len(got) != 0:
			t.Fatalf("Recover found %+v; the reference found no job", got)
		case wantOK && (len(got) != 1 || !sameJob(got[0], want)):
			t.Fatalf("Recover = %+v; the reference recovers %+v", got, want)
		}
		size, refSize := fileSize(t, path), fileSize(t, refPath)
		if size != refSize {
			t.Fatalf("Recover left %d bytes; the reference leaves %d", size, refSize)
		}
	})
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// Replay over an arbitrary handoff body matches the Unmarshal-only
// reference: no panic, the same job, record count and error.
func FuzzReplay(f *testing.F) {
	for _, seed := range journalSeeds(f) {
		f.Add(seed)
		f.Add(bytes.ReplaceAll(seed, []byte{'\n'}, []byte("\r\n")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantN, wantErr := refReplay(bytes.NewReader(data))
		got, n, err := Replay(bytes.NewReader(data))
		if n != wantN || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("Replay = %d records, error %v; the reference: %d, %v", n, err, wantN, wantErr)
		}
		if !sameJob(got, want) {
			t.Fatalf("Replay = %+v; the reference replays %+v", got, want)
		}
	})
}

// sortByID orders jobs exactly as the comparator it replaced, which
// scanned both IDs with fmt.Sscanf on every comparison.
func TestSortByIDMatchesSscanfOrder(t *testing.T) {
	ids := []string{"j2", "j10", "j0010", "j-3", "j12abc", "j99999999999999999999",
		"hpasr-g1-236cef-00011", "hpasr-g2-236cef-00002", "x", "j1_2", "j-0", "j", "j0", "J7"}
	for _, id := range ids {
		want := int64(-1)
		var n int
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil {
			want = int64(n)
		}
		if got := idNumber(id); got != want {
			t.Errorf("idNumber(%q) = %d, Sscanf reads %d", id, got, want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		jobs := make([]stream.RecoveredJob, len(ids))
		for i, id := range ids {
			jobs[i].ID = id
		}
		want := slices.Clone(jobs)
		sort.Slice(want, func(a, b int) bool {
			na, nb := -1, -1
			fmt.Sscanf(want[a].ID, "j%d", &na)
			fmt.Sscanf(want[b].ID, "j%d", &nb)
			if na >= 0 && nb >= 0 && na != nb {
				return na < nb
			}
			return want[a].ID < want[b].ID
		})
		sortByID(jobs)
		for i := range jobs {
			if jobs[i].ID != want[i].ID {
				t.Fatalf("round %d: sortByID order %v, the Sscanf comparator gives %v", round, jobIDs(jobs), jobIDs(want))
			}
		}
	}
}

func jobIDs(jobs []stream.RecoveredJob) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}
