package journal

import (
	"bytes"
	"encoding/json"
	"strconv"

	"hpas/internal/stream"
)

// Record decoding. A journal line becomes a record in exactly one
// place, recordDecoder.decodeRecord, which both disk recovery and the
// handoff Replay call.
//
// Almost every line of a long history is a msg record, and the writer
// renders those in one fixed form (encodeRecord): the record's kind,
// its seq unless zero, and the message as stream.AppendMsg encodes it,
// no whitespace. Journals written before the writer dropped the zero
// "at" carry it after the kind; both forms are read alike:
//
//	{"k":"msg"[,"at":"0001-01-01T00:00:00Z"][,"seq":N],"msg":M}
//
// onePass recognises that form without reflection: the seq must match
// the JSON integer grammar and parse as encoding/json parses an int,
// and M goes to stream.MsgDecoder, which accepts a strict subset of
// what encoding/json accepts for a message. Anything else — spec and
// state records, escapes, non-ASCII text, whitespace, reordered,
// duplicate or case-variant keys, null, a number that overflows or does
// not parse — is declined and handed to json.Unmarshal unchanged. The
// one-pass form therefore decodes to the same record encoding/json
// would, so which lines recovery keeps and where it truncates a torn
// tail do not depend on which path decoded a line.

// recordDecoder decodes the lines of one Recover or Replay call. Its
// message decoder interns class names across the call and lends every
// one-pass msg record the same Message. frames collects the encoded
// messages of the job being reconstructed (apply).
type recordDecoder struct {
	msgs   stream.MsgDecoder
	frames [][]byte
}

// decodeRecord parses one journal line into rec. Lines outside the
// one-pass form go to json.Unmarshal; its error is the line's error.
// A one-pass rec.Msg points into d and is valid until the next call.
func (d *recordDecoder) decodeRecord(line []byte, rec *record) error {
	if d.onePass(line, rec) {
		return nil
	}
	var slow record
	if err := json.Unmarshal(line, &slow); err != nil {
		return err
	}
	*rec = slow
	return nil
}

// onePass decodes line into rec if it is a msg record in the writer's
// form, and reports whether it was. rec.raw is set to the message's
// bytes when they are exactly stream.AppendMsg of it.
func (d *recordDecoder) onePass(line []byte, rec *record) bool {
	rest, ok := bytes.CutPrefix(line, []byte(`{"k":"msg"`))
	if !ok {
		return false
	}
	rest, _ = bytes.CutPrefix(rest, []byte(`,"at":"0001-01-01T00:00:00Z"`))
	seq := 0
	if r, ok := bytes.CutPrefix(rest, []byte(`,"seq":`)); ok {
		end := bytes.IndexByte(r, ',')
		if end < 0 || !intToken(r[:end]) {
			return false
		}
		n, err := strconv.ParseInt(string(r[:end]), 10, 64)
		if err != nil || int64(int(n)) != n {
			return false
		}
		seq, rest = int(n), r[end:]
	}
	span, ok := bytes.CutPrefix(rest, []byte(`,"msg":`))
	if !ok || len(span) == 0 || span[len(span)-1] != '}' {
		return false
	}
	span = span[:len(span)-1]
	msg, canonical, ok := d.msgs.Decode(span)
	if !ok {
		return false
	}
	*rec = record{Kind: "msg", Seq: seq, Msg: msg}
	if canonical {
		rec.raw = span
	}
	return true
}

// intToken reports whether b is an integer in the JSON number grammar:
// -?(0|[1-9][0-9]*).
func intToken(b []byte) bool {
	b, _ = bytes.CutPrefix(b, []byte{'-'})
	if len(b) == 0 || b[0] == '0' && len(b) > 1 {
		return false
	}
	for _, c := range b {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// encodeRecord appends rec's line to dst, without a newline: a msg
// record by hand, in the form onePass reads, any other through
// encoding/json. On error dst is returned as it was.
func encodeRecord(dst []byte, rec *record) ([]byte, error) {
	if rec.Kind != "msg" {
		b, err := json.Marshal(rec)
		if err != nil {
			return dst, err
		}
		return append(dst, b...), nil
	}
	line, err := stream.AppendMsg(msgRecord(dst, rec.Seq), rec.Msg)
	if err != nil {
		return dst, err
	}
	return append(line, '}'), nil
}

// msgRecord appends the head of seq's msg record, up to its message;
// the message's encoding and a closing brace complete it.
func msgRecord(dst []byte, seq int) []byte {
	dst = append(dst, `{"k":"msg"`...)
	if seq != 0 {
		dst = strconv.AppendInt(append(dst, `,"seq":`...), int64(seq), 10)
	}
	return append(dst, `,"msg":`...)
}
