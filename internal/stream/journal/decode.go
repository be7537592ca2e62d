package journal

import (
	"encoding/json"
	"strconv"

	"hpas/internal/stream"
)

// Record decoding. A journal line becomes a record in exactly one
// place, recordDecoder.decodeRecord, which both disk recovery and the
// handoff Replay call.
//
// Almost every line of a long history is a msg record, and the writer
// renders those in one fixed form: the record's fields in struct order,
// the zero "at" the encoder cannot omit, the message's fields in struct
// order, no whitespace. decodeMsg recognises exactly that form in one
// forward pass, without reflection:
//
//	{"k":"msg","at":"0001-01-01T00:00:00Z"[,"seq":N],"msg":{"type":S
//	  [,"window":{"node":N,"from":F,"to":F,"class":S,"confidence":F}]
//	  [,"event":{"node":N,"class":S,"start":F,"end":F,"windows":N,"confidence":F}]
//	  [,"state":S][,"error":S][,"dropped":N]}}
//
// Numbers must match the JSON number grammar and then parse with
// strconv.ParseFloat(s, 64) or strconv.ParseInt(s, 10, 64), exactly as
// encoding/json parses them into float64 and int fields. Strings must be
// printable ASCII with no backslash or '"', which encoding/json decodes to
// the same bytes. Anything else — spec and state records, escapes,
// non-ASCII text, whitespace, reordered, duplicate or case-variant keys,
// null, a number that overflows or does not parse — is declined and
// handed to json.Unmarshal unchanged. The one-pass form is therefore a
// strict subset of what encoding/json accepts, decoding to the same
// record, so which lines recovery keeps and where it truncates a torn
// tail do not depend on which path decoded a line.

// recordDecoder decodes the lines of one Recover or Replay call. It
// interns class names across the call and lends every one-pass msg
// record the same Message, which apply copies into the job's log.
type recordDecoder struct {
	msg     stream.Message
	classes map[string]string
}

// decodeRecord parses one journal line into rec. Lines outside the
// one-pass form go to json.Unmarshal; its error is the line's error.
// A one-pass rec.Msg points into d and is valid until the next call.
func (d *recordDecoder) decodeRecord(line []byte, rec *record) error {
	if d.decodeMsg(line, rec) {
		return nil
	}
	var slow record
	if err := json.Unmarshal(line, &slow); err != nil {
		return err
	}
	*rec = slow
	return nil
}

// decodeMsg decodes line into rec if it is a msg record in the writer's
// own form, and reports whether it was.
func (d *recordDecoder) decodeMsg(line []byte, rec *record) bool {
	c := cursor{rest: line}
	c.lit(`{"k":"msg","at":"0001-01-01T00:00:00Z"`)
	seq := 0
	if c.opt(`,"seq":`) {
		seq = c.int()
	}
	c.lit(`,"msg":{"type":`)
	msg := stream.Message{Type: msgType(c.str())}
	if c.opt(`,"window":{"node":`) {
		var w stream.Window
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
		if c.bad {
			return false
		}
		msg.Window = &w
	}
	if c.opt(`,"event":{"node":`) {
		var e stream.Event
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
		if c.bad {
			return false
		}
		msg.Event = &e
	}
	if c.opt(`,"state":`) {
		msg.State = jobState(c.str())
	}
	if c.opt(`,"error":`) {
		msg.Error = string(c.str())
	}
	if c.opt(`,"dropped":`) {
		msg.Dropped = c.int()
	}
	c.lit(`}}`)
	if c.bad || len(c.rest) != 0 {
		return false
	}
	d.msg = msg
	*rec = record{Kind: "msg", Seq: seq, Msg: &d.msg}
	return true
}

// class interns a class name for the rest of the decoder's call.
func (d *recordDecoder) class(b []byte) string {
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

// msgType returns the message types the stream emits as their literals.
func msgType(b []byte) string {
	switch string(b) {
	case "window":
		return "window"
	case "event":
		return "event"
	case "done":
		return "done"
	case "gap":
		return "gap"
	}
	return string(b)
}

// jobState returns the final states a done message carries as their
// constants.
func jobState(b []byte) stream.JobState {
	switch stream.JobState(b) {
	case stream.JobDone:
		return stream.JobDone
	case stream.JobFailed:
		return stream.JobFailed
	case stream.JobCancelled:
		return stream.JobCancelled
	}
	return stream.JobState(b)
}

// cursor walks a line forward. The first mismatch sets bad, and every
// later call is then a no-op returning a zero value.
type cursor struct {
	rest []byte
	bad  bool
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
	return f
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
	return int(n)
}
