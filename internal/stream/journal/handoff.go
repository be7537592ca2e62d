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
// different media (or not at all). Encoding goes through Go's JSON
// encoder over the same record struct the journal writes, and replay
// through the journal's own decodeRecord, whose one-pass path decodes
// exactly what encoding/json would (decode.go). So a decoded history
// replays byte-identically at the adopter: the stream frames a follower
// sees there are the frames the source would have served.
//
// Records are individually parseable lines, so a transfer interrupted
// mid-stream resumes by record index: the receiver counts the records
// it holds and re-requests from that offset (see serve's
// GET /v1/handoff/{id}?from=N).

// EncodeRecords renders a job snapshot as journal record lines, in the
// order a live run would have journaled them. Lines carry no trailing
// newline; joining them with '\n' yields a valid journal file body.
func EncodeRecords(rj stream.RecoveredJob) ([][]byte, error) {
	raw, err := json.Marshal(rj.Spec)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal handoff spec for %s: %w", rj.ID, err)
	}
	recs := []record{{Kind: "spec", At: rj.Created, Spec: raw}}
	if !rj.Started.IsZero() {
		recs = append(recs, record{Kind: "state", At: rj.Started, State: stream.JobRunning})
	}
	for i := range rj.Log {
		m := rj.Log[i]
		recs = append(recs, record{Kind: "msg", Seq: i, Msg: &m})
	}
	if rj.State.Final() {
		recs = append(recs, record{Kind: "state", At: rj.Finished, State: rj.State, Error: rj.Err})
	}
	out := make([][]byte, 0, len(recs))
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("journal: marshal handoff record for %s: %w", rj.ID, err)
		}
		out = append(out, line)
	}
	return out, nil
}

// Replay folds a stream of handoff record lines back into a
// RecoveredJob, returning it with the number of complete records
// consumed. Unlike disk recovery — which forgives a torn tail because a
// crash mid-write is expected — a handoff is a transfer, so a torn or
// corrupt line is an error: the caller re-fetches from the returned
// record count instead of silently adopting a truncated history. The
// decoded job's ID is left empty; the adopter names it.
func Replay(r io.Reader) (stream.RecoveredJob, int, error) {
	var rj stream.RecoveredJob
	rj.State = stream.JobQueued
	n := 0
	ok := false
	br := bufio.NewReader(r)
	var d recordDecoder
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
			apply(&rj, &rec, &ok)
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
