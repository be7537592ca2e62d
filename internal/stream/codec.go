package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// The message codec. A message has one byte form, json.Marshal's:
//
//	{"type":S
//	  [,"window":{"node":N,"from":F,"to":F,"class":S,"confidence":F}]
//	  [,"event":{"node":N,"class":S,"start":F,"end":F,"windows":N,"confidence":F}]
//	  [,"state":S][,"error":S][,"dropped":N]}
//
// AppendMsg writes it by hand and MsgDecoder reads it in one forward
// pass, both without reflection.

// AppendMsg appends json.Marshal(m) to dst, byte for byte. Messages
// whose strings are all printable ASCII without '"', '\', '<', '>' and
// '&' and whose floats are finite are written by hand, floats as
// encoding/json writes them ('f' form inside [1e-6, 1e21), 'e' form
// with an unpadded exponent outside it); any other goes to
// json.Marshal, and fails where it does.
func AppendMsg(dst []byte, m *Message) ([]byte, error) {
	e := encoder{b: dst}
	e.msg(m)
	if !e.bad {
		return e.b, nil
	}
	// Marshal a copy: handing m itself to json.Marshal would move every
	// caller's message to the heap, for the rare message that takes
	// this branch.
	c := *m
	b, err := json.Marshal(&c)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// encoder writes the hand-encoded form; a value it cannot write sets
// bad and the caller discards the output.
type encoder struct {
	b   []byte
	bad bool
}

func (e *encoder) msg(m *Message) {
	e.lit(`{"type":`)
	e.str(m.Type)
	if w := m.Window; w != nil {
		e.lit(`,"window":{"node":`)
		e.int(w.Node)
		e.lit(`,"from":`)
		e.float(w.From)
		e.lit(`,"to":`)
		e.float(w.To)
		e.lit(`,"class":`)
		e.str(w.Class)
		e.lit(`,"confidence":`)
		e.float(w.Confidence)
		e.lit(`}`)
	}
	if ev := m.Event; ev != nil {
		e.lit(`,"event":{"node":`)
		e.int(ev.Node)
		e.lit(`,"class":`)
		e.str(ev.Class)
		e.lit(`,"start":`)
		e.float(ev.Start)
		e.lit(`,"end":`)
		e.float(ev.End)
		e.lit(`,"windows":`)
		e.int(ev.Windows)
		e.lit(`,"confidence":`)
		e.float(ev.Confidence)
		e.lit(`}`)
	}
	if m.State != "" {
		e.lit(`,"state":`)
		e.str(string(m.State))
	}
	if m.Error != "" {
		e.lit(`,"error":`)
		e.str(m.Error)
	}
	if m.Dropped != 0 {
		e.lit(`,"dropped":`)
		e.int(m.Dropped)
	}
	e.lit(`}`)
}

func (e *encoder) lit(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b > 0x7e || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			e.bad = true
			return
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
}

func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1] // e-09 → e-9, as encoding/json does
		e.b = e.b[:n-1]
	}
}

// MsgDecoder decodes messages in one pass. It interns class names and
// lends each decoded message, Window and Event from its own fields, so
// decoding allocates nothing once a class name has been seen.
type MsgDecoder struct {
	msg     Message
	w       Window
	e       Event
	classes map[string]string
}

// Decode decodes b if it is in the one-pass form — the fields in
// order, no whitespace, strings of printable ASCII without escapes,
// numbers in the JSON grammar, read as strconv reads them for
// encoding/json — a strict subset of what json.Unmarshal accepts, to
// the same message. ok is false otherwise. The message is valid until
// the next call. canonical reports that b is exactly AppendMsg of it,
// decided conservatively: no float with an exponent, out of the 'f'
// range or not the shortest text (see canonicalFloat), no '<', '>' or
// '&', no int written "-0", and no empty state, error or dropped field.
func (d *MsgDecoder) Decode(b []byte) (m *Message, canonical, ok bool) {
	c := cursor{rest: b, canon: true}
	c.lit(`{"type":`)
	msg := Message{Type: msgType(c.str())}
	if c.opt(`,"window":{"node":`) {
		w := &d.w
		w.Node = c.int()
		c.lit(`,"from":`)
		w.From = c.float()
		c.lit(`,"to":`)
		w.To = c.float()
		c.lit(`,"class":`)
		w.Class = d.class(c.str())
		c.lit(`,"confidence":`)
		w.Confidence = c.float()
		c.lit(`}`)
		msg.Window = w
	}
	if c.opt(`,"event":{"node":`) {
		e := &d.e
		e.Node = c.int()
		c.lit(`,"class":`)
		e.Class = d.class(c.str())
		c.lit(`,"start":`)
		e.Start = c.float()
		c.lit(`,"end":`)
		e.End = c.float()
		c.lit(`,"windows":`)
		e.Windows = c.int()
		c.lit(`,"confidence":`)
		e.Confidence = c.float()
		c.lit(`}`)
		msg.Event = e
	}
	if c.opt(`,"state":`) {
		msg.State = jobState(c.str())
		c.canon = c.canon && msg.State != ""
	}
	if c.opt(`,"error":`) {
		msg.Error = string(c.str())
		c.canon = c.canon && msg.Error != ""
	}
	if c.opt(`,"dropped":`) {
		msg.Dropped = c.int()
		c.canon = c.canon && msg.Dropped != 0
	}
	c.lit(`}`)
	if c.bad || len(c.rest) != 0 {
		return nil, false, false
	}
	d.msg = msg
	return &d.msg, c.canon, true
}

// decodeOwned decodes b into a message that shares nothing with the
// decoder, through json.Unmarshal when b is outside the one-pass form.
func (d *MsgDecoder) decodeOwned(b []byte) (Message, error) {
	m, _, ok := d.Decode(b)
	if !ok {
		var out Message
		err := json.Unmarshal(b, &out)
		return out, err
	}
	out := *m
	if m.Window != nil {
		w := *m.Window
		out.Window = &w
	}
	if m.Event != nil {
		e := *m.Event
		out.Event = &e
	}
	return out, nil
}

func (d *MsgDecoder) class(b []byte) string {
	if s, ok := d.classes[string(b)]; ok {
		return s
	}
	if d.classes == nil {
		d.classes = make(map[string]string)
	}
	s := string(b)
	d.classes[s] = s
	return s
}

// msgType and jobState return the values the stream emits as their
// literals, so decoding them allocates nothing.
func msgType(b []byte) string {
	for _, t := range [...]string{"window", "event", "done", "gap"} {
		if string(b) == t {
			return t
		}
	}
	return string(b)
}

func jobState(b []byte) JobState {
	for _, s := range [...]JobState{JobDone, JobFailed, JobCancelled} {
		if string(b) == string(s) {
			return s
		}
	}
	return JobState(b)
}

// frameType reads an encoded message's type without decoding the rest.
func frameType(b []byte) string {
	if rest, ok := bytes.CutPrefix(b, []byte(`{"type":"`)); ok {
		if i := bytes.IndexByte(rest, '"'); i >= 0 && bytes.IndexByte(rest[:i], '\\') < 0 {
			return msgType(rest[:i])
		}
	}
	var m Message
	if json.Unmarshal(b, &m) != nil {
		return ""
	}
	return m.Type
}

// cursor walks an encoding forward. The first mismatch sets bad, after
// which every call returns a zero value; the first token outside
// AppendMsg's form clears canon.
type cursor struct {
	rest       []byte
	bad, canon bool
}

// lit consumes s, which must come next.
func (c *cursor) lit(s string) {
	if !c.opt(s) {
		c.bad = true
	}
}

// opt consumes s if it comes next and reports whether it did.
func (c *cursor) opt(s string) bool {
	if c.bad || len(c.rest) < len(s) || string(c.rest[:len(s)]) != s {
		return false
	}
	c.rest = c.rest[len(s):]
	return true
}

// str consumes a string of printable ASCII without escapes and returns
// its contents.
func (c *cursor) str() []byte {
	if c.bad || len(c.rest) == 0 || c.rest[0] != '"' {
		c.bad = true
		return nil
	}
	for i := 1; i < len(c.rest); i++ {
		switch b := c.rest[i]; {
		case b == '"':
			s := c.rest[1:i]
			c.rest = c.rest[i+1:]
			return s
		case b < 0x20 || b > 0x7e || b == '\\':
			c.bad = true
			return nil
		case b == '<' || b == '>' || b == '&':
			c.canon = false
		}
	}
	c.bad = true
	return nil
}

// number consumes one token of the JSON number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (c *cursor) number() []byte {
	if c.bad {
		return nil
	}
	b := c.rest
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		c.bad = true
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			c.bad = true
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			c.bad = true
			return nil
		}
		i = j
	}
	c.rest = b[i:]
	return b[:i]
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// float consumes a number for a float64 field.
func (c *cursor) float() float64 {
	tok := c.number()
	if c.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		c.bad = true
	}
	c.canon = c.canon && canonicalFloat(tok, f)
	return f
}

// canonicalFloat reports whether tok, a JSON number that parses to f,
// is the text encoding/json writes for f: 'f' form, which holds inside
// [1e-6, 1e21), and the shortest digits that round-trip. A decimal of
// at most 15 significant digits is the only one that short parsing to
// its float64, so without trailing zeros it is the shortest; a longer
// one is compared with what strconv writes.
func canonicalFloat(tok []byte, f float64) bool {
	sig, frac := 0, false
	for _, ch := range tok {
		switch {
		case ch == 'e' || ch == 'E':
			return false
		case ch == '.':
			frac = true
		case ch >= '1' && ch <= '9', ch == '0' && sig > 0:
			sig++
		}
	}
	switch {
	case f != 0 && math.Abs(f) < 1e-6, math.Abs(f) >= 1e21, frac && tok[len(tok)-1] == '0':
		return false
	case sig <= 15:
		return true
	}
	var buf [32]byte
	return string(strconv.AppendFloat(buf[:0], f, 'f', -1, 64)) == string(tok)
}

// int consumes a number for an int field.
func (c *cursor) int() int {
	tok := c.number()
	if c.bad {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(int(n)) != n {
		c.bad = true
	}
	c.canon = c.canon && string(tok) != "-0"
	return int(n)
}

// EncodedLog is a message log in its encoding: each message's
// AppendMsg bytes end to end in buf, message i ending at ends[i]. It
// only grows, by append, so written bytes never change, and Frame caps
// each message at its end, so no holder can write into the next.
type EncodedLog struct {
	buf  []byte
	ends []int
}

// NewEncodedLog returns a log of frames, each a message's AppendMsg
// bytes, copied end to end into exactly sized memory.
func NewEncodedLog(frames [][]byte) *EncodedLog {
	n := 0
	for _, f := range frames {
		n += len(f)
	}
	l := &EncodedLog{buf: make([]byte, 0, n), ends: make([]int, 0, len(frames))}
	for _, f := range frames {
		l.buf = append(l.buf, f...)
		l.ends = append(l.ends, len(l.buf))
	}
	return l
}

// EncodeLog returns msgs encoded as a log.
func EncodeLog(msgs []Message) (*EncodedLog, error) {
	l := &EncodedLog{}
	for i := range msgs {
		if err := l.AddMsg(&msgs[i]); err != nil {
			return nil, fmt.Errorf("stream: message %d: %w", i, err)
		}
	}
	return l, nil
}

// Len returns the number of messages in the log.
func (l *EncodedLog) Len() int { return len(l.ends) }

// Frame returns message i's bytes, a read-only sub-slice of the log.
func (l *EncodedLog) Frame(i int) []byte {
	a, b := 0, l.ends[i]
	if i > 0 {
		a = l.ends[i-1]
	}
	return l.buf[a:b:b]
}

// AddMsg encodes m onto the end of the log.
func (l *EncodedLog) AddMsg(m *Message) error {
	b, err := AppendMsg(l.buf, m)
	if err == nil {
		l.buf, l.ends = b, append(l.ends, len(b))
	}
	return err
}

// Messages decodes the whole log, nil if it is empty. Every entry is
// AppendMsg output, so one that does not decode is a broken invariant.
func (l *EncodedLog) Messages() []Message {
	if l.Len() == 0 {
		return nil
	}
	out := make([]Message, l.Len())
	var d MsgDecoder
	for i := range out {
		m, err := d.decodeOwned(l.Frame(i))
		if err != nil {
			panic(fmt.Sprintf("stream: log entry %d does not decode: %v", i, err))
		}
		out[i] = m
	}
	return out
}

// compact returns the log in exactly sized memory, without the slack
// append growth left: l itself when it has none, a copy otherwise.
func (l EncodedLog) compact() EncodedLog {
	if cap(l.buf) == len(l.buf) && cap(l.ends) == len(l.ends) {
		return l
	}
	return EncodedLog{buf: append(make([]byte, 0, len(l.buf)), l.buf...), ends: append(make([]int, 0, len(l.ends)), l.ends...)}
}

// clip returns the log without room to grow in place, so that an
// append to it copies instead of writing past another holder's end.
func (l EncodedLog) clip() EncodedLog {
	return EncodedLog{buf: slices.Clip(l.buf), ends: slices.Clip(l.ends)}
}
