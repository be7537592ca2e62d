package hpasclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpas"
)

// refStreamOnce is the Scanner-based SSE reader Stream used before it
// became StreamFrames plus a decode: one string per line, the frame's
// type read out of the decoded message. FuzzStreamParse holds Stream
// to it.
func refStreamOnce(ctx context.Context, c *Client, id string, from int, fn func(hpas.StreamMessage) error) (last int, err error) {
	last = from - 1
	resp, err := c.streamConnect(ctx, id, from)
	if err != nil {
		return last, err
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	seq, data, sawData := -1, "", false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if !sawData {
				continue // heartbeat / separator noise
			}
			var msg hpas.StreamMessage
			if err := json.Unmarshal([]byte(data), &msg); err != nil {
				return last, fmt.Errorf("bad SSE frame %q: %w", data, err)
			}
			if seq >= 0 {
				msg.Seq = seq
			}
			if err := fn(msg); err != nil {
				return last, &fnError{err}
			}
			if seq > last {
				last = seq
			}
			if msg.Type == "done" {
				return last, nil
			}
			seq, data, sawData = -1, "", false
		case strings.HasPrefix(line, "id: "):
			seq, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "data: "):
			data, sawData = strings.TrimPrefix(line, "data: "), true
		}
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	return last, fmt.Errorf("stream %s ended before the job's done message", id)
}

// maxConns caps the connections one fuzzed follow may open. A follow
// over a fixed body opens at most MaxRetries+2; reaching the cap means
// the retry loop does not terminate.
const maxConns = 32

// cannedBodyTransport answers every request with the same SSE body
// and counts the connections. Past maxConns it cancels the follow.
type cannedBodyTransport struct {
	body   []byte
	conns  int
	cancel context.CancelFunc
}

func (t *cannedBodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.conns++
	if t.conns > maxConns {
		t.cancel()
		return nil, errors.New("connection cap reached")
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"text/event-stream"}},
		Body:       io.NopCloser(bytes.NewReader(t.body)),
		Request:    req,
	}, nil
}

var errStop = errors.New("stop")

// follow is one fuzzed run: the messages fn saw, the result, and the
// connections it took.
type follow struct {
	msgs  []hpas.StreamMessage
	last  int
	err   error
	conns int
}

// runFollow serves body to a fresh client and drives run against it.
// fn returns errStop on the stop-th message (1-based; 0 never).
func runFollow(body []byte, stop int, run func(context.Context, *Client, func(hpas.StreamMessage) error) (int, error)) follow {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cannedBodyTransport{body: body, cancel: cancel}
	c := New("http://canned.invalid", Options{
		HTTPClient: &http.Client{Transport: tr},
		MaxRetries: 2,
		BaseDelay:  time.Nanosecond,
		MaxDelay:   time.Nanosecond,
		Seed:       1,
	})
	var f follow
	f.last, f.err = run(ctx, c, func(m hpas.StreamMessage) error {
		f.msgs = append(f.msgs, m)
		if len(f.msgs) == stop {
			return errStop
		}
		return nil
	})
	f.conns = tr.conns
	return f
}

// serveShaped reports whether body keeps serve's invariant that every
// data frame's event: line names its data's type, and whether every
// line fits both readers' limits (they bound a line differently above
// maxFrameLine).
func serveShaped(body []byte) bool {
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) >= maxFrameLine-1 {
			return false
		}
	}
	shaped := true
	runFollow(body, 0, func(ctx context.Context, c *Client, _ func(hpas.StreamMessage) error) (int, error) {
		return c.streamFramesOnce(ctx, "j", 0, func(f hpas.StreamFrame) error {
			var m hpas.StreamMessage
			if json.Unmarshal(f.Data, &m) == nil && m.Type != f.Type {
				shaped = false
			}
			return nil
		})
	})
	return shaped
}

func sseFrame(id, event, data string) string {
	var b strings.Builder
	if id != "" {
		b.WriteString("id: " + id + "\n")
	}
	if event != "" {
		b.WriteString("event: " + event + "\n")
	}
	b.WriteString("data: " + data + "\n\n")
	return b.String()
}

// FuzzStreamParse feeds arbitrary SSE bodies through Stream. Nothing
// may panic, and on every body shaped as serve writes it, Stream must
// match the Scanner reference: the same messages, the same last index,
// the same kind of result (done, retryable error or fn's error), and
// the same number of connections — an undecodable frame is retried
// until MaxRetries, never returned as fn's error.
func FuzzStreamParse(f *testing.F) {
	window := `{"type":"window","window":{"node":1,"from":0,"to":20,"class":"cpuoccupy","confidence":0.75}}`
	done := `{"type":"done","state":"done"}`
	for _, seed := range []struct {
		body string
		stop int
	}{
		{sseFrame("0", "window", window) + sseFrame("1", "done", done), 0},
		{sseFrame("0", "window", window) + sseFrame("1", "done", done), 1},
		// Heartbeats and comments between frames.
		{": ping\n\n\n" + sseFrame("0", "window", window) + ":\n\n" + sseFrame("1", "done", done), 0},
		// \r\n line endings.
		{strings.ReplaceAll(sseFrame("0", "window", window)+sseFrame("1", "done", done), "\n", "\r\n"), 0},
		// A frame with no id: keeps the Seq its data carries.
		{sseFrame("", "window", window) + sseFrame("3", "done", done), 0},
		// A gap frame advances the resume point.
		{sseFrame("0", "window", window) + sseFrame("9", "gap", `{"type":"gap","dropped":8}`) + sseFrame("10", "done", done), 0},
		// A data line longer than the reader's 64 KiB buffer.
		{sseFrame("0", "event", `{"type":"event","error":"`+strings.Repeat("x", 70*1024)+`"}`) + sseFrame("1", "done", done), 0},
		// An undecodable frame: a connection error, retried.
		{sseFrame("0", "window", window) + sseFrame("1", "window", `{"type":`) + sseFrame("2", "done", done), 0},
		{sseFrame("0", "window", `not json`), 0},
		// A cut connection: no done frame.
		{sseFrame("0", "window", window), 0},
		// EOF right after a "\r" line ending, which ends the frame.
		{"data: {}\n\r", 0},
		// The largest index: resuming past it must not wrap around.
		{sseFrame(strconv.Itoa(int(^uint(0)>>1)), "window", window), 0},
	} {
		f.Add([]byte(seed.body), uint8(seed.stop))
	}
	f.Fuzz(func(t *testing.T, body []byte, stop uint8) {
		got := runFollow(body, int(stop), func(ctx context.Context, c *Client, fn func(hpas.StreamMessage) error) (int, error) {
			return 0, c.Stream(ctx, "j", 0, fn)
		})
		runFollow(body, 0, func(ctx context.Context, c *Client, _ func(hpas.StreamMessage) error) (int, error) {
			return 0, c.StreamFrames(ctx, "j", 0, func(hpas.StreamFrame) error { return nil })
		})
		if got.conns > maxConns {
			t.Fatalf("Stream opened more than %d connections over one fixed body", maxConns)
		}
		if !serveShaped(body) {
			return
		}
		want := runFollow(body, int(stop), func(ctx context.Context, c *Client, fn func(hpas.StreamMessage) error) (int, error) {
			return 0, c.streamLoop(ctx, "j", 0, func(ctx context.Context, from int) (int, error) {
				return refStreamOnce(ctx, c, "j", from, fn)
			})
		})
		compare(t, "Stream", got, want)

		// One connection, so the last index is visible too.
		got = runFollow(body, int(stop), func(ctx context.Context, c *Client, fn func(hpas.StreamMessage) error) (int, error) {
			return c.streamFramesOnce(ctx, "j", 0, decodeFrames(fn))
		})
		want = runFollow(body, int(stop), func(ctx context.Context, c *Client, fn func(hpas.StreamMessage) error) (int, error) {
			return refStreamOnce(ctx, c, "j", 0, fn)
		})
		compare(t, "one connection", got, want)
		if got.last != want.last {
			t.Fatalf("one connection: last index %d, reference %d", got.last, want.last)
		}
	})
}

func compare(t *testing.T, what string, got, want follow) {
	t.Helper()
	if !reflect.DeepEqual(got.msgs, want.msgs) {
		t.Fatalf("%s: delivered %d messages %+v, reference %d %+v", what, len(got.msgs), got.msgs, len(want.msgs), want.msgs)
	}
	if kind(got.err) != kind(want.err) {
		t.Fatalf("%s: result %q (%v), reference %q (%v)", what, kind(got.err), got.err, kind(want.err), want.err)
	}
	if got.conns != want.conns {
		t.Fatalf("%s: %d connections, reference %d", what, got.conns, want.conns)
	}
}

// kind classifies a follow's result: a clean done, the caller's fn
// error, or any other (retryable or exhausted) error.
func kind(err error) string {
	var fe *fnError
	switch {
	case err == nil:
		return "done"
	case errors.Is(err, errStop), errors.As(err, &fe):
		return "fn"
	}
	return "error"
}
