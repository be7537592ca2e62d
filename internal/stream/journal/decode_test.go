package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hpas/internal/race"
	"hpas/internal/stream"
)

// samePtr compares two optional values: both absent, or both present
// and equal under eq.
func samePtr[T any](a, b *T, eq func(a, b *T) bool) bool {
	if a == nil || b == nil {
		return a == b
	}
	return eq(a, b)
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameWindow(a, b *stream.Window) bool {
	return a.Node == b.Node && sameFloat(a.From, b.From) && sameFloat(a.To, b.To) &&
		a.Class == b.Class && sameFloat(a.Confidence, b.Confidence)
}

func sameEvent(a, b *stream.Event) bool {
	return a.Node == b.Node && a.Class == b.Class && sameFloat(a.Start, b.Start) &&
		sameFloat(a.End, b.End) && a.Windows == b.Windows && sameFloat(a.Confidence, b.Confidence)
}

// sameMessage compares messages field by field, floats by their bits.
func sameMessage(a, b *stream.Message) bool {
	return a.Type == b.Type && a.State == b.State && a.Error == b.Error &&
		a.Seq == b.Seq && a.Dropped == b.Dropped &&
		samePtr(a.Window, b.Window, sameWindow) && samePtr(a.Event, b.Event, sameEvent)
}

// sameRecord compares records by value: Msg dereferenced, floats by bits.
func sameRecord(a, b *record) bool {
	return a.Kind == b.Kind && a.At == b.At && a.Seq == b.Seq && a.State == b.State &&
		a.Error == b.Error && bytes.Equal(a.Spec, b.Spec) && samePtr(a.Msg, b.Msg, sameMessage)
}

// sameJob compares a recovered job with a reference job whose log is
// structs: an encoded log frame by frame against json.Marshal of the
// reference's messages, a struct log message by message as sameMessage
// does, everything else by reflect.DeepEqual.
func sameJob(a, ref stream.RecoveredJob) bool {
	if a.Encoded != nil {
		if a.Encoded.Len() != len(ref.Log) {
			return false
		}
		for i := range ref.Log {
			want, err := json.Marshal(&ref.Log[i])
			if err != nil || !bytes.Equal(a.Encoded.Frame(i), want) {
				return false
			}
		}
	} else {
		if len(a.Log) != len(ref.Log) {
			return false
		}
		for i := range a.Log {
			if !sameMessage(&a.Log[i], &ref.Log[i]) {
				return false
			}
		}
	}
	a.Log, a.Encoded, ref.Log = nil, nil, nil
	return reflect.DeepEqual(a, ref)
}

const zeroAt = `{"k":"msg","at":"0001-01-01T00:00:00Z"`

// decodeSeeds covers every message shape in the writer's form, the
// number and string edge cases the one-pass path must decline or
// decode exactly as encoding/json does, and lines that only
// encoding/json may decode.
var decodeSeeds = []string{
	// Every message shape, as the writer renders it.
	zeroAt + `,"msg":{"type":"window","window":{"node":0,"from":0,"to":5,"class":"none","confidence":1}}}`,
	zeroAt + `,"seq":17,"msg":{"type":"window","window":{"node":3,"from":12.25,"to":22.25,"class":"cpuoccupy","confidence":0.7333333333333333}}}`,
	zeroAt + `,"seq":40,"msg":{"type":"event","event":{"node":1,"class":"memleak","start":150,"end":210,"windows":51,"confidence":0.9411764705882353}}}`,
	zeroAt + `,"seq":41,"msg":{"type":"done","state":"done"}}`,
	zeroAt + `,"seq":41,"msg":{"type":"done","state":"failed","error":"stream: job interrupted by service restart"}}`,
	zeroAt + `,"seq":2,"msg":{"type":"done","state":"cancelled"}}`,
	zeroAt + `,"seq":9,"msg":{"type":"gap","dropped":12}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":2,"from":1e-7,"to":1e+21,"class":"membw","confidence":5E-324}}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":2,"from":-0,"to":-0.0,"class":"<&>","confidence":1.7976931348623157e308}}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":1,"from":1,"to":2,"class":"a","confidence":0.5},"event":{"node":1,"class":"a","start":1,"end":2,"windows":1,"confidence":0.5},"state":"","error":"","dropped":0}}`,
	// Numbers: overflow, leading zeros, bare points, signs, fractions in
	// int fields, int64 overflow.
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":0,"from":1e400,"to":5,"class":"none","confidence":1}}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":1e400,"from":0,"to":5,"class":"none","confidence":1}}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":01,"from":0,"to":5,"class":"none","confidence":1}}}`,
	zeroAt + `,"seq":01,"msg":{"type":"done","state":"done"}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":0,"from":01,"to":5,"class":"none","confidence":1}}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":0,"from":1.,"to":5,"class":"none","confidence":1}}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":0,"from":.5,"to":5,"class":"none","confidence":1}}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":0,"from":1e,"to":5,"class":"none","confidence":1}}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":-0,"from":0,"to":5,"class":"none","confidence":1}}}`,
	zeroAt + `,"seq":-0,"msg":{"type":"done","state":"done"}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":1.0,"from":0,"to":5,"class":"none","confidence":1}}}`,
	zeroAt + `,"seq":9223372036854775808,"msg":{"type":"done","state":"done"}}`,
	zeroAt + `,"seq":9223372036854775807,"msg":{"type":"done","state":"done"}}`,
	zeroAt + `,"seq":3,"msg":{"type":"event","event":{"node":0,"class":"x","start":0,"end":1,"windows":9223372036854775808,"confidence":1}}}`,
	zeroAt + `,"seq":3,"msg":{"type":"gap","dropped":-9223372036854775809}}`,
	zeroAt + `,"seq":+3,"msg":{"type":"done","state":"done"}}`,
	// Keys: case variants, duplicates, null, reordering.
	zeroAt + `,"seq":3,"msg":{"Type":"done","state":"done"}}`,
	`{"K":"msg","at":"0001-01-01T00:00:00Z","msg":{"type":"done"}}`,
	zeroAt + `,"seq":3,"seq":4,"msg":{"type":"done","state":"done"}}`,
	zeroAt + `,"seq":3,"msg":{"type":"done","type":"window","state":"done"}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":null}}`,
	zeroAt + `,"seq":3,"msg":null}`,
	zeroAt + `,"seq":3,"msg":{"state":"done","type":"done"}}`,
	`{"k":"msg","seq":0,"msg":{"type":"window","window":{"node":0,"from":0,"to":5,"class":"none","confidence":1}}}`,
	`{"k":"msg","seq":3,"at":"0001-01-01T00:00:00Z","msg":{"type":"done","state":"done"}}`,
	`{"k":"msg","at":"0001-01-01T00:00:00Z","at":"0001-01-01T00:00:00Z","msg":{"type":"done"}}`,
	// Strings: escapes, invalid UTF-8, non-ASCII, control bytes.
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":0,"from":0,"to":5,"class":"\u0063puoccupy","confidence":1}}}`,
	zeroAt + `,"seq":3,"msg":{"type":"\u0064one","state":"done"}}`,
	`{"k":"\u006dsg","at":"0001-01-01T00:00:00Z","seq":3,"msg":{"type":"done","state":"done"}}`,
	zeroAt + `,"seq":3,"msg":{"type":"done","state":"failed","error":"a \"quoted\" \\ path"}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":0,"from":0,"to":5,"class":"` + "\xff" + `","confidence":1}}}`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":0,"from":0,"to":5,"class":"` + "é" + `","confidence":1}}}`,
	zeroAt + `,"seq":3,"msg":{"type":"done","state":"failed","error":"tab` + "\t" + `here"}}`,
	// Whitespace and trailing bytes.
	zeroAt + `,"seq":3,"msg":{"type":"done","state":"done"}}` + "\r",
	zeroAt + `,"seq":3,"msg":{"type":"done","state":"done"}} `,
	" " + zeroAt + `,"seq":3,"msg":{"type":"done","state":"done"}}`,
	zeroAt + `, "seq":3,"msg":{"type":"done","state":"done"}}`,
	zeroAt + `,"seq":3,"msg":{"type":"done","state":"done"}}}`,
	zeroAt + `,"seq":3,"msg":{"type":"done","state":"done"}}x`,
	// Records only encoding/json decodes, and torn lines.
	`{"k":"spec","at":"2026-01-02T03:04:05.006Z","spec":{"Campaign":{}}}`,
	`{"k":"state","at":"2026-01-02T03:04:05.006Z","state":"running"}`,
	`{"k":"state","at":"2026-01-02T03:04:05.006Z","state":"failed","error":"boom"}`,
	`{"k":"msg","at":"2026-01-02T03:04:05Z","seq":1,"msg":{"type":"done"}}`,
	`{"k":"msg","seq":3,"msg":{"type":"win`,
	zeroAt + `,"seq":3,"msg":{"type":"window","window":{"node":0,"from":0,"to":5,"class":"none","confidence":1}`,
	``, `{}`, `null`, `[]`,
	// The writer's form since it stopped writing the zero "at", with
	// non-canonical numbers and empty omitempty fields it must
	// re-encode rather than copy.
	`{"k":"msg","msg":{"type":"window","window":{"node":0,"from":0,"to":5,"class":"none","confidence":1}}}`,
	`{"k":"msg","seq":17,"msg":{"type":"window","window":{"node":3,"from":12.25,"to":22.25,"class":"cpuoccupy","confidence":0.7333333333333333}}}`,
	`{"k":"msg","seq":40,"msg":{"type":"event","event":{"node":1,"class":"memleak","start":150,"end":210,"windows":51,"confidence":0.9411764705882353}}}`,
	`{"k":"msg","seq":41,"msg":{"type":"done","state":"failed","error":"stream: job interrupted by service restart"}}`,
	`{"k":"msg","seq":9,"msg":{"type":"gap","dropped":12}}`,
	`{"k":"msg","seq":3,"msg":{"type":"window","window":{"node":0,"from":1.0,"to":0.950,"class":"none","confidence":1e1}}}`,
	`{"k":"msg","seq":3,"msg":{"type":"window","window":{"node":0,"from":1.0,"to":2,"class":"none","confidence":1}}}`,
	`{"k":"msg","seq":3,"msg":{"type":"window","window":{"node":0,"from":1,"to":0.950,"class":"none","confidence":1}}}`,
	`{"k":"msg","seq":3,"msg":{"type":"window","window":{"node":0,"from":1,"to":100000000000000000000000,"class":"none","confidence":1}}}`,
	`{"k":"msg","seq":3,"msg":{"type":"done","state":""}}`,
	`{"k":"msg","seq":3,"msg":{"type":"window","window":{"node":0,"from":0.0000001,"to":100000000000000000000000,"class":"none","confidence":0.1234567890123456}}}`,
	`{"k":"msg","seq":3,"msg":{"type":"window","window":{"node":0,"from":-0,"to":-0.0,"class":"a&b","confidence":0.000001}}}`,
	`{"k":"msg","seq":3,"msg":{"type":"done","state":"","error":"","dropped":0}}`,
	`{"k":"msg","seq":-0,"msg":{"type":"gap","dropped":-0}}`,
	`{"k":"msg","seq":3,"msg":{"type":"window","window":{"node":0,"from":9007199254740991,"to":9007199254740993,"class":"none","confidence":-0.5}}}`,
	`{"k":"msg","seq":3,"msg":{"type":"window","window":{"node":0,"from":0.0000000000000000000001,"to":0.00000000000000000000001,"class":"none","confidence":0.30000000000000004}}}`,
	`{"k":"msg","seq":3,"msg":{"type":"window","window":{"node":0,"from":123456789012345.6,"to":0.10000000000000001,"class":"none","confidence":100000000000000000000}}}`,
	`{"k":"msg","seq":3,"msg":{"type":"done","state":"done"}`,
	`{"k":"msg","seq":3 ,"msg":{"type":"done","state":"done"}}`,
}

// The one-pass path is a strict subset of encoding/json: whatever it
// accepts, json.Unmarshal accepts too and decodes to an equal record,
// and message bytes it finds canonical are exactly json.Marshal of that
// message. decodeRecord as a whole accepts and rejects exactly what
// json.Unmarshal does, with the same result.
func FuzzDecodeRecord(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want record
		wantErr := json.Unmarshal(line, &want)

		var d recordDecoder
		var fast record
		if d.onePass(line, &fast) {
			if wantErr != nil {
				t.Fatalf("one-pass decode accepted %q; encoding/json rejects it: %v", line, wantErr)
			}
			if !sameRecord(&fast, &want) {
				t.Fatalf("one-pass decode of %q = %+v (msg %+v); encoding/json gives %+v (msg %+v)", line, fast, fast.Msg, want, want.Msg)
			}
			if fast.raw != nil {
				if b, err := json.Marshal(want.Msg); err != nil || !bytes.Equal(fast.raw, b) {
					t.Fatalf("one-pass decode of %q found %s canonical; json.Marshal gives %s (%v)", line, fast.raw, b, err)
				}
			}
		}

		var got record
		err := d.decodeRecord(line, &got)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("decodeRecord(%q) error %v; encoding/json: %v", line, err, wantErr)
		}
		if err == nil && !sameRecord(&got, &want) {
			t.Fatalf("decodeRecord(%q) = %+v; encoding/json gives %+v", line, got, want)
		}
	})
}

// everyShape is one message of every shape the service journals: a
// window, an event, and a done message with and without an error for
// each final state, plus the follower-only gap message.
func everyShape() []stream.Message {
	msgs := []stream.Message{
		{Type: "window", Window: &stream.Window{Node: 3, From: 12.25, To: 22.25, Class: "cpuoccupy", Confidence: 0.7333333333333333}},
		{Type: "window", Window: &stream.Window{Node: 0, From: 1e-7, To: 1e21, Class: "none", Confidence: 1}},
		{Type: "event", Event: &stream.Event{Node: 1, Class: "memleak", Start: 150, End: 210, Windows: 51, Confidence: 0.9411764705882353}},
		{Type: "gap", Dropped: 12},
	}
	for _, st := range []stream.JobState{stream.JobDone, stream.JobFailed, stream.JobCancelled} {
		msgs = append(msgs,
			stream.Message{Type: "done", State: st},
			stream.Message{Type: "done", State: st, Error: stream.ErrInterrupted.Error()})
	}
	return msgs
}

// The fallback guard: every msg record the writer produces, through
// Journal.Append and through EncodeRecords, takes the one-pass path and
// decodes to what was written. Renaming or reordering a field of
// Message, Window or Event would silently send every record to the
// slow path; this test fails instead.
func TestOnePassDecodesEveryWrittenShape(t *testing.T) {
	msgs := everyShape()
	dir := t.TempDir()
	jn, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 6e6, time.UTC)
	if err := jn.Create("j0001", at, hogSpec(1, 30)); err != nil {
		t.Fatal(err)
	}
	for i, m := range msgs {
		if err := jn.Append("j0001", i, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "j0001"+suffix))
	if err != nil {
		t.Fatal(err)
	}
	appended := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")[1:] // past the spec record

	encoded, err := EncodeRecords(stream.RecoveredJob{ID: "j0001", Created: at, State: stream.JobQueued, Log: msgs})
	if err != nil {
		t.Fatal(err)
	}
	for name, lines := range map[string][]string{"Append": appended, "EncodeRecords": bytesToStrings(encoded[1:])} {
		if len(lines) != len(msgs) {
			t.Fatalf("%s wrote %d msg records, want %d", name, len(lines), len(msgs))
		}
		for i, line := range lines {
			var d recordDecoder
			var rec record
			if !d.onePass([]byte(line), &rec) {
				t.Errorf("%s record %d takes the slow path: %s", name, i, line)
				continue
			}
			if rec.Seq != i || !sameMessage(rec.Msg, &msgs[i]) {
				t.Errorf("%s record %d decodes to seq %d %+v, want seq %d %+v", name, i, rec.Seq, *rec.Msg, i, msgs[i])
			}
		}
	}
}

func bytesToStrings(bs [][]byte) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = string(b)
	}
	return out
}

// Once a decoder has seen a class name, decoding a record allocates
// nothing: class names are interned, types and states are literals, and
// the message, its Window and its Event are lent.
func TestDecodeAllocsPerRecord(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed by -race instrumentation")
	}
	var d recordDecoder
	var rec record
	for _, tc := range []struct {
		line   string
		allocs float64
	}{
		{zeroAt + `,"seq":1,"msg":{"type":"window","window":{"node":0,"from":12.25,"to":22.25,"class":"cpuoccupy","confidence":0.7333333333333333}}}`, 0},
		{`{"k":"msg","seq":2,"msg":{"type":"event","event":{"node":1,"class":"cpuoccupy","start":150,"end":210,"windows":51,"confidence":0.9411764705882353}}}`, 0},
		{zeroAt + `,"seq":3,"msg":{"type":"done","state":"done"}}`, 0},
	} {
		line := []byte(tc.line)
		got := testing.AllocsPerRun(100, func() {
			if !d.onePass(line, &rec) {
				t.Fatalf("canonical record declined: %s", line)
			}
		})
		if got != tc.allocs {
			t.Errorf("decoding %s: %.1f allocs, want %.0f", line, got, tc.allocs)
		}
	}
}
