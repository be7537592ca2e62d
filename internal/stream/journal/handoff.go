package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"hpas/internal/stream"
)

// Handoff codec: the wire format of shard-to-shard journal migration.
//
// A job's history travels as the same newline-delimited JSON records
// the on-disk journal stores — one spec record, an optional running
// transition, one msg record per log entry, and the terminal state —
// synthesized from a live RecoveredJob snapshot rather than read off
// disk, so a handoff works even when the source shard journals to
// different media (or not at all). Records are written as the journal
// writes them, each msg record around the message's bytes in the
// snapshot's encoded log, and replayed through the journal's own
// decodeRecord, whose one-pass path decodes exactly what encoding/json
// would (decode.go). So a decoded history replays byte-identically at
// the adopter: the stream frames a follower sees there are the frames
// the source would have served.
//
// Records are individually parseable lines, so a transfer interrupted
// mid-stream resumes by record index: the receiver counts the records
// it holds and re-requests from that offset (see serve's
// GET /v1/handoff/{id}?from=N).

// EncodeRecords renders a job snapshot as journal record lines, in the
// order a live run would have journaled them. A snapshot's encoded log
// is wrapped as it is; a Log is encoded first. Lines carry no trailing
// newline; joining them with '\n' yields a valid journal file body.
func EncodeRecords(rj stream.RecoveredJob) ([][]byte, error) {
	raw, err := json.Marshal(rj.Spec)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal handoff spec for %s: %w", rj.ID, err)
	}
	log := rj.Encoded
	if log == nil {
		if log, err = stream.EncodeLog(rj.Log); err != nil {
			return nil, fmt.Errorf("journal: handoff log of %s: %w", rj.ID, err)
		}
	}
	var out [][]byte
	add := func(rec record) {
		if err == nil {
			var line []byte
			line, err = encodeRecord(nil, &rec)
			out = append(out, line)
		}
	}
	add(record{Kind: "spec", At: rj.Created, Spec: raw})
	if !rj.Started.IsZero() {
		add(record{Kind: "state", At: rj.Started, State: stream.JobRunning})
	}
	for i := 0; i < log.Len(); i++ {
		f := log.Frame(i)
		out = append(out, append(append(msgRecord(make([]byte, 0, 32+len(f)), i), f...), '}'))
	}
	if rj.State.Final() {
		add(record{Kind: "state", At: rj.Finished, State: rj.State, Error: rj.Err})
	}
	if err != nil {
		return nil, fmt.Errorf("journal: marshal handoff record for %s: %w", rj.ID, err)
	}
	return out, nil
}

// Replay folds a stream of handoff record lines back into a
// RecoveredJob, returning it with the number of complete records
// consumed. Unlike disk recovery — which forgives a torn tail because a
// crash mid-write is expected — a handoff is a transfer, so a torn or
// corrupt line is an error: the caller re-fetches from the returned
// record count instead of silently adopting a truncated history. The
// decoded job's ID is left empty; the adopter names it. The history is
// recovered as the journal recovers it, then handed over as structs.
func Replay(r io.Reader) (rj stream.RecoveredJob, n int, err error) {
	rj.State = stream.JobQueued
	var d recordDecoder
	defer func() { rj.Log = stream.NewEncodedLog(d.frames).Messages() }()
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
			if uerr := d.decodeRecord(line, &rec); uerr != nil {
				return rj, n, fmt.Errorf("journal: handoff record %d torn or corrupt: %v", n, uerr)
			}
			if err := d.apply(&rj, &rec, &ok); err != nil {
				return rj, n, fmt.Errorf("journal: handoff record %d: %w", n, err)
			}
			n++
		}
		if tail {
			break
		}
	}
	if !ok {
		return rj, n, fmt.Errorf("journal: handoff carried no records")
	}
	fillCreated(&rj)
	return rj, n, nil
}
