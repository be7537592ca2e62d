// Package serve is the HTTP serving layer of the streaming
// anomaly-detection service: the handlers behind cmd/hpas-serve,
// extracted into an importable package so tests, examples, and
// embedders can run the real service in-process.
//
// A Server wires the streaming job manager and the shared pre-trained
// detector into the /v1 API (see cmd/hpas-serve for the endpoint
// inventory) behind an admission-control front door: a global and
// per-client token-bucket rate limit and a bounded-wait concurrency
// gate (internal/admission) shed overload as 429/503 + Retry-After
// before it can queue without bound. POST /v1/jobs honors the
// Idempotency-Key header, so clients that retry a timed-out submission
// get the job the first attempt created instead of a duplicate.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hpas"
	"hpas/api"
	"hpas/internal/admission"
)

// Config tunes a Server beyond its manager and detector.
type Config struct {
	// Admission configures the front-door limiter; the zero value
	// admits everything (see admission.Options).
	Admission admission.Options
}

// Server handles the /v1 API. The detector is trained once at startup
// and shared read-only across jobs (tree prediction is lock-free).
type Server struct {
	mgr *hpas.StreamManager
	det *hpas.Detector
	adm *admission.Limiter
}

// New returns a server over the manager and detector.
func New(mgr *hpas.StreamManager, det *hpas.Detector, cfg Config) *Server {
	return &Server{mgr: mgr, det: det, adm: admission.New(cfg.Admission)}
}

// Handler builds the service mux. Non-streaming endpoints run under a
// request deadline and full admission control; the stream endpoint
// lives as long as its job (or the client) and is rate-limited only —
// a long-lived follow must not pin a concurrency slot. Probes and
// metrics bypass admission entirely: an operator diagnosing an
// overloaded service must not be shed by the very overload they are
// diagnosing.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	admit := func(h http.HandlerFunc) http.Handler { return s.adm.Wrap(h) }
	mux.Handle("POST /v1/jobs", admit(withDeadline(10*time.Second, s.handleSubmit)))
	mux.Handle("GET /v1/jobs", admit(withDeadline(10*time.Second, s.handleList)))
	mux.Handle("GET /v1/jobs/{id}", admit(withDeadline(10*time.Second, s.handleGet)))
	mux.Handle("DELETE /v1/jobs/{id}", admit(withDeadline(10*time.Second, s.handleCancel)))
	mux.Handle("GET /v1/jobs/{id}/stream", s.adm.WrapRate(http.HandlerFunc(s.handleStream)))
	// Journal handoff (see handoff.go): router-driven rebalancing
	// traffic, deliberately outside admission control like the probes.
	mux.HandleFunc("GET /v1/handoff/{id}", withDeadline(10*time.Second, s.handleHandoffGet))
	mux.HandleFunc("POST /v1/handoff/{id}", withDeadline(30*time.Second, s.handleHandoffPost))
	mux.HandleFunc("GET /v1/metrics", withDeadline(10*time.Second, s.handleMetrics))
	mux.HandleFunc("GET /v1/healthz", withDeadline(5*time.Second, s.handleHealthz))
	mux.HandleFunc("GET /v1/readyz", withDeadline(5*time.Second, s.handleReadyz))
	// Legacy aliases: both probes answer unversioned too, so router
	// health checks and k8s-style probe configs can use either form
	// against old and new shards alike.
	mux.HandleFunc("GET /healthz", withDeadline(5*time.Second, s.handleHealthz))
	mux.HandleFunc("GET /readyz", withDeadline(5*time.Second, s.handleReadyz))
	return mux
}

// handleHealthz is the liveness probe: the process is up and the
// worker pool exists. It deliberately checks nothing that can degrade
// — degraded is readyz's business; liveness failures mean "restart me".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.mgr.Stats()
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"workers":        st.Workers,
		"uptime_seconds": st.UptimeSeconds,
	})
}

// handleReadyz is the readiness probe. It reports 503 only when the
// manager no longer accepts jobs (shutdown); a degraded journal keeps
// the endpoint green — the service still serves, in-memory — but is
// surfaced in the body so operators and tests can see it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h, code := s.Health()
	WriteJSON(w, code, h)
}

// Health is the readiness report behind /v1/readyz, exposed so
// embedders — the shard router's in-process backend foremost — can
// probe a server without an HTTP round trip. The returned code is the
// HTTP status the report would be served with: 200 while the manager
// accepts jobs, 503 once it is closing.
func (s *Server) Health() (api.ShardHealth, int) {
	st := s.mgr.Stats()
	h := api.ShardHealth{
		Status:          "ok",
		Journal:         "none",
		Workers:         st.Workers,
		JobsRunning:     st.JobsRunning,
		QueueDepth:      st.QueueDepth,
		PanicsRecovered: st.PanicsRecovered,
	}
	switch {
	case !st.JournalAttached:
	case st.JournalDegraded:
		h.Journal = "degraded"
	default:
		h.Journal = "ok"
	}
	code := http.StatusOK
	if !s.mgr.Ready() {
		h.Status = "closing"
		code = http.StatusServiceUnavailable
	}
	return h, code
}

// withDeadline bounds a handler's request context.
func withDeadline(d time.Duration, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// JobStatusOf renders a job in its wire representation. It is the one
// place a *hpas.StreamJob becomes an api.JobStatus; the shard router's
// in-process backend reuses it so routed and direct views of a job
// cannot drift.
func JobStatusOf(j *hpas.StreamJob) api.JobStatus {
	state, jerr := j.State()
	created, started, finished := j.Times()
	st := api.JobStatus{
		ID:      j.ID(),
		State:   string(state),
		Created: created,
		Events:  j.Events(),
		Stream:  "/v1/jobs/" + j.ID() + "/stream",
	}
	if jerr != nil {
		st.Error = jerr.Error()
	}
	if !started.IsZero() {
		st.Started = &started
	}
	if !finished.IsZero() {
		st.Finished = &finished
	}
	return st
}

// maxBodyBytes bounds every request body the service decodes.
const maxBodyBytes = 1 << 20

// DecodeJSON reads one JSON document from the request into dst with
// the service's body policy: bounded size, unknown fields rejected
// (so a typo like "anomalycpu" fails loudly instead of being silently
// ignored), and decode failures translated into errors that name the
// offending field or byte. Every body-reading handler goes through it.
func DecodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if dec.More() {
			return fmt.Errorf("request body contains more than one JSON document")
		}
		return nil
	}
	return decodeError(err)
}

// DecodeJSONRaw is DecodeJSON that also hands back the validated body
// bytes, for proxies — the shard router foremost — that decode a
// request to route it but forward the client's encoding verbatim
// instead of re-marshaling. The returned bytes are exactly one JSON
// document that decoded cleanly into dst under the same policy
// (bounded size, unknown fields rejected); on error the bytes are nil.
func DecodeJSONRaw(w http.ResponseWriter, r *http.Request, dst any) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, decodeError(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return nil, decodeError(err)
	}
	if dec.More() {
		return nil, fmt.Errorf("request body contains more than one JSON document")
	}
	return raw, nil
}

// decodeError translates a body-read or JSON-decode failure into an
// error naming the offending field or byte (DecodeJSON's contract).
func decodeError(err error) error {
	var (
		syntaxErr *json.SyntaxError
		typeErr   *json.UnmarshalTypeError
		maxErr    *http.MaxBytesError
	)
	switch {
	case errors.As(err, &maxErr):
		return fmt.Errorf("request body too large: exceeds %d bytes: %w", maxErr.Limit, err)
	case errors.As(err, &syntaxErr):
		return fmt.Errorf("malformed JSON at byte %d", syntaxErr.Offset)
	case errors.As(err, &typeErr):
		if typeErr.Field != "" {
			return fmt.Errorf("field %q: cannot decode %s as %s", typeErr.Field, typeErr.Value, typeErr.Type)
		}
		return fmt.Errorf("cannot decode %s as %s", typeErr.Value, typeErr.Type)
	case errors.Is(err, io.EOF):
		return fmt.Errorf("empty request body")
	case errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("malformed JSON: unexpected end of body")
	case strings.HasPrefix(err.Error(), "json: unknown field "):
		return fmt.Errorf("unknown field %s", strings.TrimPrefix(err.Error(), "json: unknown field "))
	default:
		return fmt.Errorf("bad request body: %w", err)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobRequest
	if err := DecodeJSON(w, r, &req); err != nil {
		code := http.StatusBadRequest
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			code = http.StatusRequestEntityTooLarge
		}
		WriteError(w, code, err)
		return
	}
	spec, err := s.BuildSpec(req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	key := strings.TrimSpace(r.Header.Get(api.IdempotencyKeyHeader))
	if len(key) > api.MaxIdempotencyKeyLen {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("%s longer than %d bytes", api.IdempotencyKeyHeader, api.MaxIdempotencyKeyLen))
		return
	}
	spec.IdempotencyKey = key

	job, deduped, err := s.mgr.SubmitIdempotent(spec)
	switch {
	case errors.Is(err, hpas.ErrStreamQueueFull):
		// The queue is full of admitted work: this is client-paceable
		// pressure (429), unlike shutdown (503 below). The hint scales
		// with how much work sits ahead of the retry.
		st := s.mgr.Stats()
		retry := 1 + st.QueueDepth/max(1, st.Workers)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		WriteError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, hpas.ErrStreamClosed):
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if deduped {
		// The key had been seen: answer with the existing job. 200, not
		// 202 — nothing new was accepted — plus an explicit marker so
		// clients and humans can tell a replay from a fresh creation.
		w.Header().Set(api.IdempotencyReplayedHeader, "true")
		WriteJSON(w, http.StatusOK, JobStatusOf(job))
		return
	}
	WriteJSON(w, http.StatusAccepted, JobStatusOf(job))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.mgr.Jobs()
	out := make([]api.JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, JobStatusOf(j))
	}
	WriteJSON(w, http.StatusOK, api.JobList{Jobs: out})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	WriteJSON(w, http.StatusOK, JobStatusOf(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.Cancel(r.Context(), r.PathValue("id")); err != nil {
		if r.Context().Err() != nil {
			return // the client is gone; the job is cancelled regardless
		}
		WriteError(w, http.StatusNotFound, err)
		return
	}
	j, _ := s.mgr.Get(r.PathValue("id"))
	WriteJSON(w, http.StatusOK, JobStatusOf(j))
}

// handleStream serves the job's live message stream: NDJSON by default,
// server-sent events when the client asks for text/event-stream. The
// stream replays from the job's start, follows live output, and ends
// after the final "done" message.
//
// SSE frames carry the message's log index as the event ID, and a
// reconnecting client's Last-Event-ID header resumes the replay just
// past that index instead of from scratch — the same indices the
// journal persists, so resumption works across a service restart too.
//
// A consumer that falls more than the server's follow limit behind a
// live job receives a "gap" message ({"type":"gap","dropped":N})
// instead of unbounded buffering; the full stream remains replayable
// once the job finishes.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	from := 0
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		if lei := r.Header.Get("Last-Event-ID"); lei != "" {
			if n, err := strconv.Atoi(lei); err == nil && n >= 0 {
				from = n + 1
			}
		}
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)

	// Frames arrive wire-encoded (sub-slices of the job's encoded log,
	// see stream.Frame); this loop only assembles and flushes. Whatever
	// is already queued behind the current frame is coalesced into the
	// same Write+Flush, bounded by the quantum, so a replaying or bursty
	// stream costs one syscall per batch instead of per message.
	frames := j.FollowFramesFrom(r.Context(), from)
	sw := NewStreamWriter(w, sse)
	defer sw.Release()
	for f := range frames {
		sw.Append(f)
	coalesce:
		for sw.Buffered() < StreamFlushQuantum {
			select {
			case f2, ok := <-frames:
				if !ok {
					break coalesce
				}
				sw.Append(f2)
			default:
				break coalesce
			}
		}
		if err := sw.Flush(); err != nil {
			return // client gone
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"service":   s.mgr.Stats(),
		"admission": s.adm.Stats(),
		"detector": map[string]any{
			"classes":   s.det.Classes,
			"window":    s.det.Window,
			"nfeatures": s.det.NFeatures,
		},
	})
}

// WriteJSON marshals before committing the status line, so an
// unencodable value becomes a 500 instead of a 200 with a truncated
// body the client cannot distinguish from success.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		//lint:allow erraudit the encode failure is already being reported; this fallback body is best-effort
		w.Write([]byte("{\n  \"error\": \"internal: encoding response failed\"\n}\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(append(b, '\n')); err != nil {
		return // client gone; status and body were already committed
	}
}

func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, api.Error{Error: err.Error()})
}
