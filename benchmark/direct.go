package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"hpas"
	hpasclient "hpas/client"
	"hpas/internal/features"
	"hpas/internal/monitor"
)

// Direct calls: one layer's public function on inputs captured from a
// real run, timed alone. They size a layer's share of a ladder rung that
// several layers hide behind; they do not add up to anything.

// runCampaign runs a job spec's campaign the way the manager's worker
// does, with the given monitor tap.
func runCampaign(ctx context.Context, spec hpas.StreamJobSpec, tap monitor.TapFunc) error {
	camp := spec.Campaign
	camp.Base.Tap = tap
	if len(camp.Phases) == 0 {
		_, err := hpas.RunContext(ctx, camp.Base)
		return err
	}
	_, err := camp.RunContext(ctx)
	return err
}

// capturedWindow is one node's first full observation window as the
// pipeline would hand it to features.ExtractRows.
type capturedWindow struct {
	names   []string
	rows    [][]float64 // per metric, chronological
	samples int         // monitor samples the whole run delivered to the tap
}

// captureWindow runs the campaign once and keeps the first window of
// the first watched node.
func captureWindow(ctx context.Context, spec hpas.StreamJobSpec, winN int) (capturedWindow, error) {
	var w capturedWindow
	node := 0
	if len(spec.Pipeline.Nodes) > 0 {
		node = spec.Pipeline.Nodes[0]
	}
	err := runCampaign(ctx, spec, func(s monitor.Sample) {
		w.samples++
		if s.Node != node {
			return
		}
		if w.rows == nil {
			w.names = s.Names
			w.rows = make([][]float64, len(s.Values))
		}
		if len(w.rows[0]) < winN {
			for m, v := range s.Values {
				w.rows[m] = append(w.rows[m], v)
			}
		}
	})
	if err == nil && (w.rows == nil || len(w.rows[0]) < winN) {
		err = fmt.Errorf("run delivered no full %d-sample window on node %d", winN, node)
	}
	return w, err
}

// pipelineDirect times feature extraction and voting on one captured
// window: µs per window each, and extraction's allocations.
func pipelineDirect(det *hpas.Detector, w capturedWindow) (extractUS, extractAllocs, votesUS float64, err error) {
	voter, ok := det.Model.(interface{ Votes([]float64) []float64 })
	if !ok {
		return 0, 0, 0, fmt.Errorf("detector model %T exposes no votes", det.Model)
	}
	vec := features.ExtractRows(w.names, w.rows)
	if det.NFeatures > 0 && len(vec.Values) != det.NFeatures {
		return 0, 0, 0, fmt.Errorf("captured window has %d features, detector expects %d", len(vec.Values), det.NFeatures)
	}
	const n = 400
	extractUS = quietMicros(n, func() { features.ExtractRows(w.names, w.rows) })
	extractAllocs = allocsPer(n, func() { features.ExtractRows(w.names, w.rows) })
	votesUS = quietMicros(n, func() { voter.Votes(vec.Values) })
	return extractUS, extractAllocs, votesUS, nil
}

// discardWriter is a ResponseWriter that drops the body, so a handler
// can be timed without a socket or a recorder's growing buffer.
type discardWriter struct {
	header http.Header
	status int
}

func newDiscardWriter() *discardWriter { return &discardWriter{header: make(http.Header)} }

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}
func (d *discardWriter) Write(p []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	return len(p), nil
}
func (d *discardWriter) Flush() {}

// tinyJob is the smallest submission the service accepts quickly: the
// handler cost around it is what serveDirect times.
var tinyJob = []byte(`{"nodes":2,"duration":12,"window":10,"seed":7}`)

// serveDirect times serve's handlers without HTTP under them: the
// submit handler on a tiny job, and the stream handler replaying job id
// (which must be finished) in SSE form. It returns the stream's body
// and frame count too, for the client's direct calls.
func serveDirect(node *serveNode, id string) (submitUS, streamUSPerFrame float64, body []byte, frames int, err error) {
	h := node.srv.Handler()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	const submits = 48
	xs := make([]float64, 0, submits)
	for i := 0; i < submits; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(tinyJob))
		w := newDiscardWriter()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		xs = append(xs, us(time.Since(t0)))
		if w.status != http.StatusAccepted {
			return 0, 0, nil, 0, fmt.Errorf("direct submit answered %d", w.status)
		}
		// One job in flight at a time, as in the closed loop.
		if err := node.mgr.Drain(ctx); err != nil {
			return 0, 0, nil, 0, err
		}
	}
	submitUS = quietDecile(xs)

	stream := func(w http.ResponseWriter) {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/stream", nil)
		req.Header.Set("Accept", "text/event-stream")
		h.ServeHTTP(w, req)
	}
	rec := httptest.NewRecorder()
	stream(rec)
	if rec.Code != http.StatusOK {
		return 0, 0, nil, 0, fmt.Errorf("direct stream of %s answered %d", id, rec.Code)
	}
	body = rec.Body.Bytes()
	frames = bytes.Count(body, []byte("\n\n"))
	if frames == 0 {
		return 0, 0, nil, 0, fmt.Errorf("direct stream of %s is empty", id)
	}
	streamUSPerFrame = quietMicros(60, func() { stream(newDiscardWriter()) }) / float64(frames)
	return submitUS, streamUSPerFrame, body, frames, nil
}

// cannedTransport answers every request with one stored SSE body, so
// the client's parser can be timed with no server and no socket.
type cannedTransport struct{ body []byte }

func (c cannedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"text/event-stream"}},
		Body:       io.NopCloser(bytes.NewReader(c.body)),
	}, nil
}

// clientDirect times the client against a canned stream body: µs per
// frame to parse it raw, and the extra µs per frame to decode it.
func clientDirect(body []byte, frames int) (parseUS, decodeUS float64, err error) {
	cl := hpasclient.New("http://canned.invalid", hpasclient.Options{
		HTTPClient: &http.Client{Transport: cannedTransport{body}},
		Seed:       1,
		MaxRetries: -1,
	})
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	raw := func() error {
		return cl.StreamFrames(ctx, "canned", 0, func(hpas.StreamFrame) error { return nil })
	}
	decoded := func() error {
		return cl.Stream(ctx, "canned", 0, func(hpas.StreamMessage) error { return nil })
	}
	if err := raw(); err != nil {
		return 0, 0, fmt.Errorf("canned stream, raw: %w", err)
	}
	if err := decoded(); err != nil {
		return 0, 0, fmt.Errorf("canned stream, decoded: %w", err)
	}
	const n = 60
	rawUS := quietMicros(n, func() { _ = raw() })         // checked once above; the body never changes
	decodedUS := quietMicros(n, func() { _ = decoded() }) // likewise
	return rawUS / float64(frames), (decodedUS - rawUS) / float64(frames), nil
}

// journalDirect times the journal alone in a scratch directory: µs per
// buffered message append, and µs for the terminal state record, which
// flushes, fsyncs and closes the job's file.
func journalDirect(dir string) (appendUS, stateSyncUS float64, err error) {
	jn, err := hpas.OpenStreamJournal(dir)
	if err != nil {
		return 0, 0, err
	}
	msg := hpas.StreamMessage{Type: "window", Window: &hpas.StreamWindow{Node: 1, From: 10, To: 20, Class: "cpuoccupy", Confidence: 0.82}}
	const jobs, appends = 60, 40
	var app, fin []float64
	now := time.Now()
	writeJob := func(id string) error {
		if err := jn.Create(id, now, hpas.StreamJobSpec{}); err != nil {
			return err
		}
		for seq := 0; seq < appends; seq++ {
			t0 := time.Now()
			if err := jn.Append(id, seq, msg); err != nil {
				return err
			}
			app = append(app, us(time.Since(t0)))
		}
		t0 := time.Now()
		if err := jn.State(id, hpas.StreamJobDone, "", now); err != nil {
			return err
		}
		fin = append(fin, us(time.Since(t0)))
		return nil
	}
	for j := 0; j < jobs && err == nil; j++ {
		err = writeJob(fmt.Sprintf("d%04d", j))
	}
	if err = errors.Join(err, jn.Close()); err != nil {
		return 0, 0, fmt.Errorf("direct journal calls: %w", err)
	}
	return quietDecile(app), quietDecile(fin), nil
}

// queueWaits returns each job's created → started wait in ms.
func queueWaits(mgr *hpas.StreamManager) []float64 {
	var waits []float64
	for _, j := range mgr.Jobs() {
		created, started, _ := j.Times()
		if !started.IsZero() {
			waits = append(waits, ms(started.Sub(created)))
		}
	}
	return waits
}
