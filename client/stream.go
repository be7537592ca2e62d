package hpasclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hpas"
)

// Stream follows job id's message stream from log index from (0 =
// start), calling fn for every message in order until the job's final
// "done" message, which is delivered too. Each message's Seq carries
// its log index.
//
// The follow rides SSE so the connection is resumable: when it is cut
// mid-stream — a crashed proxy, a bounced server, an admission shed —
// Stream backs off and reconnects with Last-Event-ID set to the last
// index fn saw, so no message is delivered twice and none is lost. A
// "gap" frame advances the resume point past the dropped region (its
// Seq is the last skipped index), exactly as the server's follow
// semantics define. Reconnects that made progress reset the retry
// budget; MaxRetries bounds only consecutive fruitless attempts. A
// frame whose data does not decode counts as a broken connection and
// is retried the same way.
//
// A non-nil error from fn stops the follow and is returned as-is.
func (c *Client) Stream(ctx context.Context, id string, from int, fn func(hpas.StreamMessage) error) error {
	return c.StreamFrames(ctx, id, from, decodeFrames(fn))
}

// decodeFrames adapts a message callback to StreamFrames: it decodes
// each frame's data and stamps Seq from the frame's id: line when it
// has one.
func decodeFrames(fn func(hpas.StreamMessage) error) func(hpas.StreamFrame) error {
	return func(f hpas.StreamFrame) error {
		var msg hpas.StreamMessage
		if err := json.Unmarshal(f.Data, &msg); err != nil {
			return badFrame{fmt.Errorf("bad SSE frame %q: %w", f.Data, err)}
		}
		if f.Seq >= 0 {
			msg.Seq = f.Seq
		}
		return fn(msg)
	}
}

// badFrame marks a frame decodeFrames could not decode, so the follow
// retries it as a connection error instead of returning it as fn's.
type badFrame struct{ err error }

func (e badFrame) Error() string { return e.err.Error() }

// StreamFrames is Stream delivering wire-encoded frames instead of
// decoded messages: fn receives each SSE frame's event ID (Seq), event
// type, and raw data bytes without the client unmarshaling them. The
// shard router's stream proxy rides this to pass shard bytes through
// to its own client verbatim — no decode→re-encode per message per
// hop. Frame.Raw carries the frame's complete SSE block so an SSE
// re-emitter forwards one slice verbatim. Frame.Data and Frame.Raw
// alias a buffer reused for the next frame: they are valid only until
// fn returns, and fn must copy them to retain them.
// Frame.More is set when more frame bytes are already buffered on the
// connection, so a batching consumer can defer its flush. Reconnect
// and resume semantics are identical to Stream's.
func (c *Client) StreamFrames(ctx context.Context, id string, from int, fn func(hpas.StreamFrame) error) error {
	return c.streamLoop(ctx, id, from, func(ctx context.Context, from int) (int, error) {
		return c.streamFramesOnce(ctx, id, from, fn)
	})
}

// streamLoop is the reconnect-and-resume skeleton behind StreamFrames
// and so Stream: once runs a single connection from the given index
// and reports the highest index it delivered; the loop resumes just
// past it, resetting the retry budget whenever an attempt made
// progress.
func (c *Client) streamLoop(ctx context.Context, id string, from int, once func(context.Context, int) (int, error)) error {
	next := from
	failures := 0
	for {
		last, err := once(ctx, next)
		if err == nil {
			return nil // clean done frame
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var fe *fnError
		if errors.As(err, &fe) {
			return fe.err
		}
		var ae *APIError
		if errors.As(err, &ae) && !retryable(ae.StatusCode) {
			return err // 404 and friends: retrying cannot help
		}
		if last >= next && last < math.MaxInt { // past MaxInt there is no resume point
			next = last + 1
			failures = 0
		} else {
			failures++
			if failures > c.maxRetries {
				return fmt.Errorf("stream %s: %d consecutive failed attempts: %w", id, failures, err)
			}
		}
		var ra time.Duration
		if ae != nil {
			ra = ae.retryAfter
		}
		if serr := sleep(ctx, c.backoff(failures, ra)); serr != nil {
			return err
		}
	}
}

// fnError marks an error raised by the caller's fn, to be returned
// as-is rather than retried.
type fnError struct{ err error }

func (e *fnError) Error() string { return e.err.Error() }

// streamConnect opens one SSE connection resuming at log index from,
// returning the response with a 200 status; any other status is closed
// and translated into an *APIError for the retry loop.
func (c *Client) streamConnect(ctx context.Context, id string, from int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if from > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(from-1))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	c.noteEpoch(resp.Header)
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		ae := &APIError{StatusCode: resp.StatusCode, retryAfter: parseRetryAfter(resp.Header)}
		var envelope struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&envelope)
		ae.Message = envelope.Error
		return nil, ae
	}
	return resp, nil
}

// maxFrameLine bounds one SSE line, so a corrupt or hostile stream
// cannot grow a line without bound.
const maxFrameLine = 1 << 20

// frameReaderPool recycles the buffered readers behind
// streamFramesOnce; each is Reset onto its connection before use, and
// nothing delivered to callers aliases the reader's buffer.
var frameReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 64*1024) },
}

// streamFramesOnce runs one SSE connection delivering frames from
// index `from` on. It returns the highest log index it delivered
// (from-1 if none) and nil after a done frame, or the connection's
// terminal error. It parses SSE lines into hpas.StreamFrames without
// unmarshaling their data. The frame's type comes from the event:
// line, which serve and the router always emit, and terminal
// detection keys off Type == "done".
func (c *Client) streamFramesOnce(ctx context.Context, id string, from int, fn func(hpas.StreamFrame) error) (last int, err error) {
	last = from - 1
	resp, err := c.streamConnect(ctx, id, from)
	if err != nil {
		return last, err
	}
	defer resp.Body.Close()

	br := frameReaderPool.Get().(*bufio.Reader)
	br.Reset(resp.Body)
	defer func() {
		br.Reset(nil) // drop the body reference before pooling
		frameReaderPool.Put(br)
	}()

	// Each frame's lines are accumulated verbatim (with \n line endings)
	// into block, reused frame-over-frame: it becomes Frame.Raw so the
	// proxy can re-emit the block in one write, and Frame.Data is sliced
	// out of it by offset. Both are only promised valid until fn returns.
	seq, event, sawData := -1, "", false
	var block []byte
	dataOff, dataEnd := 0, 0
	for {
		line, rerr := readFrameLine(br)
		if rerr != nil {
			if rerr == io.EOF {
				return last, fmt.Errorf("stream %s ended before the job's done message", id)
			}
			return last, rerr
		}
		switch {
		case len(line) == 0:
			if !sawData {
				block = block[:0] // drop heartbeat / separator noise
				continue
			}
			block = append(block, '\n')
			f := hpas.StreamFrame{
				Seq:  seq,
				Type: event,
				Data: block[dataOff:dataEnd],
				More: br.Buffered() > 0,
				Raw:  block,
			}
			if err := fn(f); err != nil {
				var bf badFrame
				if errors.As(err, &bf) {
					return last, bf.err
				}
				return last, &fnError{err}
			}
			if seq > last {
				last = seq
			}
			if event == "done" {
				return last, nil
			}
			seq, event, sawData = -1, "", false
			block = block[:0]
		case bytes.HasPrefix(line, []byte("id: ")):
			seq, _ = strconv.Atoi(string(line[len("id: "):]))
			block = append(block, line...)
			block = append(block, '\n')
		case bytes.HasPrefix(line, []byte("event: ")):
			event = internEvent(line[len("event: "):])
			block = append(block, line...)
			block = append(block, '\n')
		case bytes.HasPrefix(line, []byte("data: ")):
			// Offsets are recorded now and sliced at emit time, so a
			// block reallocation from a later append cannot strand them.
			dataOff = len(block) + len("data: ")
			dataEnd = len(block) + len(line)
			block = append(block, line...)
			block = append(block, '\n')
			sawData = true
		}
	}
}

// internEvent maps the stream's fixed event vocabulary onto static
// strings so the hot parse loop does not allocate a string per frame;
// anything unrecognized still gets its own copy.
func internEvent(b []byte) string {
	switch string(b) { // compiler elides the conversion in a switch
	case "window":
		return "window"
	case "event":
		return "event"
	case "gap":
		return "gap"
	case "done":
		return "done"
	}
	return string(b)
}

// readFrameLine reads one line (sans EOL) from br, tolerating lines
// longer than the reader's buffer up to maxFrameLine. The returned
// slice aliases the reader's buffer (or a temporary) and is only valid
// until the next read.
func readFrameLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			if len(long) > maxFrameLine {
				return nil, fmt.Errorf("SSE line exceeds %d bytes", maxFrameLine)
			}
			line, err = br.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil && (err != io.EOF || len(line) == 0) {
		return nil, err
	}
	// A last line that EOF cuts short still counts, so a stream whose
	// final line ending is a bare "\r" still ends the frame before it.
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}
