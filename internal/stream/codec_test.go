package stream

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"

	"hpas/internal/race"
)

// fuzzMsg builds a message from fuzz arguments: an optional window and
// event sharing the numbers, every string field set from the inputs.
func fuzzMsg(typ string, window, event bool, node int, a, b, c float64, class string, windows int, state, errText string, dropped int) Message {
	m := Message{Type: typ, State: JobState(state), Error: errText, Dropped: dropped}
	if window {
		m.Window = &Window{Node: node, From: a, To: b, Class: class, Confidence: c}
	}
	if event {
		m.Event = &Event{Node: node, Class: class, Start: b, End: c, Windows: windows, Confidence: a}
	}
	return m
}

type msgSeed struct {
	typ            string
	window, event  bool
	node           int
	a, b, c        float64
	class          string
	windows        int
	state, errText string
	dropped        int
}

func addMsgSeeds(f *testing.F) {
	for _, s := range []msgSeed{
		{"window", true, false, 3, 12.25, 22.25, 0.7333333333333333, "cpuoccupy", 0, "", "", 0},
		{"event", false, true, 1, 0.9411764705882353, 150, 210, "memleak", 51, "", "", 0},
		{"done", false, false, 0, 0, 0, 0, "", 0, "failed", "stream: job interrupted by service restart", 0},
		{"gap", false, false, 0, 0, 0, 0, "", 0, "", "", 12},
		{"", false, false, 0, 0, 0, 0, "", 0, "", "", 0},
		// Escapes, HTML characters, invalid UTF-8 and non-ASCII: all
		// take the json.Marshal fallback.
		{"window", true, false, 0, 1, 2, 1, `a "quoted" \ path`, 0, "", "", 0},
		{"done", false, false, 0, 0, 0, 0, "", 0, "failed", "tab\there\nnewline\x00", 0},
		{"window", true, true, 0, 1, 2, 1, "<&>", 1, "", "", 0},
		{"win<dow", false, false, 0, 0, 0, 0, "", 0, "", "", 0},
		{"window", true, false, 0, 1, 2, 1, "\xff\xfe", 0, "", "", 0},
		{"done", false, false, 0, 0, 0, 0, "", 0, "failed", "bad \xc3 byte", 0},
		{"window", true, false, 0, 1, 2, 1, "é  ", 0, "", "", 0},
		{"\x7f", false, false, 0, 0, 0, 0, "", 0, "", "", 0},
		// The 'f'/'e' switch and its boundaries.
		{"window", true, true, 0, 1e21, 1e-6, 1e-7, "none", 0, "", "", 0},
		{"window", true, true, 0, math.Nextafter(1e21, 0), math.Nextafter(1e-6, 0), 9.999999999999999e20, "none", 0, "", "", 0},
		{"window", true, true, 0, -1e21, -1e-6, -1e-7, "none", 0, "", "", 0},
		{"window", true, true, 0, 1e-9, 1e-10, 1e100, "none", 0, "", "", 0},
		{"window", true, true, 0, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, "none", 0, "", "", 0},
		// Short decimals, their neighbours and the 15-significant-digit
		// edge of the canonical-copy rule.
		{"window", true, true, 0, 0.95, 0.05, 120.5, "none", 0, "", "", 0},
		{"window", true, true, 0, -0.125, 0.001, 0.0001, "none", 0, "", "", 0},
		{"window", true, true, 0, 999999999999999, 1e15, 99999999999999.99, "none", 0, "", "", 0},
		{"window", true, true, 0, 0.1 + 0.7, 1.005, 2.675, "none", 0, "", "", 0},
		{"window", true, true, -53, 2.45, 44.5, -92.26666666666667, "0", 49, "", "0", 0},
		{"window", true, true, 0, 9007199254740993, 123456789012.345, -5e-324, "none", 0, "", "", 0},
		// Signed zero and 16–17 significant digits.
		{"window", true, true, 0, math.Copysign(0, -1), 0, 0.1, "none", 0, "", "", 0},
		{"window", true, true, 0, 0.1 + 0.2, 1234567890123456, 12345678901234567, "none", 0, "", "", 0},
		{"window", true, true, 0, 1.0000000000000002, 9007199254740993, 0.30000000000000004, "none", 0, "", "", 0},
		// Integer extremes.
		{"event", true, true, math.MaxInt, 1, 2, 3, "x", math.MinInt, "", "", math.MaxInt},
		{"gap", false, false, math.MinInt, 0, 0, 0, "", 0, "", "", -1},
		// NaN and infinities: json.Marshal fails, so must AppendMsg.
		{"window", true, false, 0, math.NaN(), 1, 1, "none", 0, "", "", 0},
		{"window", true, false, 0, 1, math.Inf(1), 1, "none", 0, "", "", 0},
		{"event", false, true, 0, 1, 1, math.Inf(-1), "none", 1, "", "", 0},
	} {
		f.Add(s.typ, s.window, s.event, s.node, s.a, s.b, s.c, s.class, s.windows, s.state, s.errText, s.dropped)
	}
}

// AppendMsg is json.Marshal, byte for byte, over every message shape:
// the same bytes, or the same failure with dst left as it was.
func FuzzAppendMsg(f *testing.F) {
	addMsgSeeds(f)
	f.Fuzz(func(t *testing.T, typ string, window, event bool, node int, a, b, c float64, class string, windows int, state, errText string, dropped int) {
		m := fuzzMsg(typ, window, event, node, a, b, c, class, windows, state, errText, dropped)
		want, wantErr := json.Marshal(&m)
		prefix := []byte("prefix")
		got, err := AppendMsg(prefix, &m)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("AppendMsg(%+v) error %v; json.Marshal: %v", m, err, wantErr)
		}
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("AppendMsg(%+v) lost dst: %q", m, got)
		}
		if err != nil {
			if len(got) != len(prefix) {
				t.Fatalf("AppendMsg(%+v) failed but grew dst to %q", m, got)
			}
			return
		}
		if got := got[len(prefix):]; !bytes.Equal(got, want) {
			t.Fatalf("AppendMsg(%+v) = %s; json.Marshal gives %s", m, got, want)
		}
	})
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameMsg compares messages field by field, floats by their bits.
func sameMsg(a, b *Message) bool {
	if a.Type != b.Type || a.State != b.State || a.Error != b.Error || a.Dropped != b.Dropped ||
		(a.Window == nil) != (b.Window == nil) || (a.Event == nil) != (b.Event == nil) {
		return false
	}
	if w, v := a.Window, b.Window; w != nil && (w.Node != v.Node || !sameFloat(w.From, v.From) ||
		!sameFloat(w.To, v.To) || w.Class != v.Class || !sameFloat(w.Confidence, v.Confidence)) {
		return false
	}
	if e, v := a.Event, b.Event; e != nil && (e.Node != v.Node || e.Class != v.Class || !sameFloat(e.Start, v.Start) ||
		!sameFloat(e.End, v.End) || e.Windows != v.Windows || !sameFloat(e.Confidence, v.Confidence)) {
		return false
	}
	return true
}

// The decoder inverts the encoder: every hand-encoded message comes
// back from the one-pass Decode bit for bit, and every message whose
// strings are valid UTF-8 comes back from decodeOwned, which falls back
// to json.Unmarshal for what the fallback encoder wrote.
func FuzzMsgRoundTrip(f *testing.F) {
	addMsgSeeds(f)
	f.Fuzz(func(t *testing.T, typ string, window, event bool, node int, a, b, c float64, class string, windows int, state, errText string, dropped int) {
		m := fuzzMsg(typ, window, event, node, a, b, c, class, windows, state, errText, dropped)
		enc, err := AppendMsg(nil, &m)
		if err != nil {
			return
		}
		var d MsgDecoder
		handEncoded := encoder{}
		handEncoded.msg(&m)
		got, _, ok := d.Decode(enc)
		switch {
		case !handEncoded.bad && !ok:
			t.Fatalf("Decode declined the hand encoding %s", enc)
		case ok && !sameMsg(got, &m):
			t.Fatalf("Decode(%s) = %+v; encoded %+v", enc, *got, m)
		}
		if !utf8.ValidString(typ) || !utf8.ValidString(class) || !utf8.ValidString(state) || !utf8.ValidString(errText) {
			return
		}
		owned, err := d.decodeOwned(enc)
		if err != nil || !sameMsg(&owned, &m) {
			t.Fatalf("decodeOwned(%s) = %+v, %v; encoded %+v", enc, owned, err, m)
		}
	})
}

// Encoding a window message into a buffer with room allocates nothing.
func TestAppendMsgAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are skewed by -race instrumentation")
	}
	m := Message{Type: "window", Window: &Window{Node: 3, From: 12.25, To: 22.25, Class: "cpuoccupy", Confidence: 0.7333333333333333}}
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = AppendMsg(buf[:0], &m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AppendMsg of a window message allocates %.1f, want 0", allocs)
	}
}
