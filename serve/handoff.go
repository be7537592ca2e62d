package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"hpas"
	"hpas/api"
)

// Journal handoff: the shard-side endpoints behind dynamic membership
// (internal/shard, cmd/hpas-router). GET /v1/handoff/{id} exports one
// terminal job's history as newline-delimited journal records; POST
// /v1/handoff/{id} imports such a history, so a replacement shard can
// adopt a dead or leaving member's finished jobs and serve
// byte-identical stream replays. Both endpoints bypass admission
// control: handoff is rebalancing traffic driven by the router, and
// shedding it under load would pin history on the member being drained.

// maxHandoffBytes bounds an adopted history's wire size. Far above any
// realistic job log (the follow limit bounds live lag, not log length,
// but logs are event summaries, not raw samples), yet finite, so a
// misbehaving peer cannot buffer unbounded records into the adopter.
const maxHandoffBytes = 64 << 20

// handleHandoffGet streams the job's journal records, one JSON document
// per line, starting at record offset ?from=N (default 0). Only
// terminal jobs are served (409 otherwise): a live job's history is
// still growing and its owner has not abandoned it. The total record
// count travels in api.HandoffRecordsHeader so an interrupted receiver
// knows where to resume.
func (s *Server) handleHandoffGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.mgr.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	state, _ := j.State()
	if !state.Final() {
		WriteError(w, http.StatusConflict,
			fmt.Errorf("job %q is %s: handoff serves terminal history only", id, state))
		return
	}
	lines, err := hpas.EncodeStreamRecords(j.EncodedSnapshot())
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad from offset %q", q))
			return
		}
		from = n
	}
	if from > len(lines) {
		from = len(lines)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(api.HandoffRecordsHeader, strconv.Itoa(len(lines)))
	w.WriteHeader(http.StatusOK)
	for _, line := range lines[from:] {
		if _, err := w.Write(append(line, '\n')); err != nil {
			return // receiver gone; it will resume from its record count
		}
	}
}

// handleHandoffPost adopts a job history: the body is the record stream
// handleHandoffGet serves. The adopter dedupes on the history's
// idempotency key — if the key already names a local job (failover
// re-placed it here before its history arrived), that job is returned
// with 200 + Idempotency-Replayed instead of importing a duplicate; a
// fresh adoption answers 201. A torn or corrupt body is 400: the sender
// retries the transfer rather than leaving a truncated history behind.
func (s *Server) handleHandoffPost(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxHandoffBytes)
	rj, _, err := hpas.ReplayStreamRecords(body)
	if err != nil {
		code := http.StatusBadRequest
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			code = http.StatusRequestEntityTooLarge
		}
		WriteError(w, code, err)
		return
	}
	rj.ID = r.PathValue("id")
	j, deduped, err := s.mgr.Adopt(rj)
	if errors.Is(err, hpas.ErrStreamClosed) {
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if deduped {
		w.Header().Set(api.IdempotencyReplayedHeader, "true")
		WriteJSON(w, http.StatusOK, JobStatusOf(j))
		return
	}
	WriteJSON(w, http.StatusCreated, JobStatusOf(j))
}
