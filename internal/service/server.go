package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/maxpower"
)

// maxBodyBytes bounds request bodies; the largest legitimate payload is
// an uploaded .bench netlist (C7552-class files are well under 1 MiB).
const maxBodyBytes = 8 << 20

// Machine-readable error codes shared across handlers (the rest are
// literal at their single use site).
const (
	codeRateLimited     = "rate_limited"
	codeQuotaExceeded   = "quota_exceeded"
	codeUnauthorized    = "unauthorized"
	codeTenantQueueFull = "tenant_queue_full"
)

// Server is the HTTP front of a Manager.
type Server struct {
	mgr *Manager
	mux *http.ServeMux
}

// NewServer wires the routes around a Manager. The job routes are the
// tenant plane: when tenants are configured they require an API key
// (Authorization: Bearer or X-API-Key) and every job is scoped to its
// owner. The shard, circuit, stats, health, and debug routes are the
// operator/fleet plane and stay unauthenticated — fleet coordinators
// and probes are not tenants.
func NewServer(mgr *Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.authed(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.authed(s.handleList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.authed(s.handleStatus))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.authed(s.handleResult))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.authed(s.handleCancel))
	s.mux.HandleFunc("POST /v1/shards", s.handleShardSubmit)
	s.mux.HandleFunc("GET /v1/shards/{id}", s.handleShardStatus)
	s.mux.HandleFunc("DELETE /v1/shards/{id}", s.handleShardCancel)
	s.mux.HandleFunc("GET /v1/circuits", s.handleCircuits)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	return s
}

// ServeHTTP implements http.Handler. Every response passes through the
// envelope writer, which rewrites any plain-text 4xx/5xx (the mux's
// own 404/405, anything that slipped past a handler) into the
// structured JSON error body — the API contract is that *every* error
// carries a machine-readable code.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
}

// apiKey extracts the request's API key: Authorization: Bearer first,
// X-API-Key as the fallback.
func apiKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
		return strings.TrimSpace(strings.TrimPrefix(auth, "Bearer "))
	}
	return r.Header.Get("X-API-Key")
}

// authed wraps a tenant-plane handler with API-key resolution. With no
// tenants configured every caller is the anonymous tenant "" and
// nothing is refused — full pre-tenant compatibility.
func (s *Server) authed(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, ok := s.mgr.Authenticate(apiKey(r))
		if !ok {
			writeError(w, http.StatusUnauthorized, codeUnauthorized, "missing or unknown API key")
			return
		}
		h(w, r, tenant)
	}
}

// envelopeWriter intercepts plain-text error responses and rewrites
// them as the structured JSON error envelope. Handlers that already
// write JSON (all of ours) pass through untouched.
type envelopeWriter struct {
	http.ResponseWriter
	intercept bool
	status    int
	wrote     bool
}

func (w *envelopeWriter) WriteHeader(status int) {
	if status >= 400 && !strings.Contains(w.Header().Get("Content-Type"), "json") {
		w.intercept = true
		w.status = status
		w.Header().Set("Content-Type", "application/json")
		w.Header().Del("Content-Length")
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *envelopeWriter) Write(b []byte) (int, error) {
	if !w.intercept {
		return w.ResponseWriter.Write(b)
	}
	// First chunk of an intercepted error is the plain-text message
	// (http.Error writes exactly one); re-emit it as the envelope and
	// swallow anything after.
	if !w.wrote {
		w.wrote = true
		body, _ := json.Marshal(apiError{Error: errorBody{
			Code:    codeForStatus(w.status),
			Message: strings.TrimSpace(string(b)),
		}})
		w.ResponseWriter.Write(body)
		w.ResponseWriter.Write([]byte("\n"))
	}
	return len(b), nil
}

// codeForStatus maps an HTTP status to the default machine-readable
// code for errors that did not come through writeError.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusUnauthorized:
		return codeUnauthorized
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusTooManyRequests:
		return codeRateLimited
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusInternalServerError:
		return "internal"
	}
	return fmt.Sprintf("http_%d", status)
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// handleSubmit is POST /v1/jobs: validate, run the tenant's admission
// pipeline, enqueue, 202 with the ID. Every rejection is counted
// (rejected_invalid / rejected_queue_full / rejected_shutting_down /
// rate_limited / quota_exceeded) so load shedding shows up in
// /v1/stats; 429s and 503s carry Retry-After so well-behaved clients
// back off.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, tenant string) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, code, err := decodeJobRequest(body)
	if err != nil {
		s.refuse(w, &badRequest{code, err})
		return
	}
	id, err := s.mgr.SubmitAs(req, tenant)
	var rle *RateLimitError
	switch {
	case errors.As(err, &rle):
		w.Header().Set("Retry-After", retryAfterSeconds(rle.RetryAfter))
		writeError(w, http.StatusTooManyRequests, rle.Code, err.Error())
		return
	case errors.Is(err, errTenantFull):
		// This tenant's backlog bound, not the service's: 429, the
		// service itself has room.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, codeTenantQueueFull, err.Error())
		return
	case err != nil:
		s.refuse(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":         id,
		"status_url": "/v1/jobs/" + id,
		"result_url": "/v1/jobs/" + id + "/result",
	})
}

func isBuiltinCircuit(name string) bool {
	for _, n := range maxpower.CircuitNames() {
		if n == name {
			return true
		}
	}
	return false
}

// handleList is GET /v1/jobs, scoped to the caller's tenant.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request, tenant string) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.ListFor(tenant)})
}

// handleStatus is GET /v1/jobs/{id}. Another tenant's job is a plain
// 404 — existence is not leaked across tenants.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, tenant string) {
	st, err := s.mgr.StatusFor(r.PathValue("id"), tenant)
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResult is GET /v1/jobs/{id}/result.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, tenant string) {
	res, err := s.mgr.ResultFor(r.PathValue("id"), tenant)
	switch {
	case errors.Is(err, ErrNotFinished):
		writeError(w, http.StatusConflict, "not_finished", err.Error())
		return
	case err != nil:
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleCancel is DELETE /v1/jobs/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, tenant string) {
	err := s.mgr.CancelFor(r.PathValue("id"), tenant)
	switch {
	case errors.Is(err, ErrFinished):
		writeError(w, http.StatusConflict, "already_finished", err.Error())
		return
	case err != nil:
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": r.PathValue("id"), "state": "cancelling"})
}

// handleShardSubmit is POST /v1/shards: the worker side of a fleet.
// Accepts one shard of a sharded job, idempotently by shard ID (a
// duplicate submit returns the shard's current status; a failed or
// cancelled shard re-enqueues — the coordinator's retry path). The
// embedded job payload is validated with the job schema before the
// shard is accepted.
func (s *Server) handleShardSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req fleet.ShardRequest
	if err := unmarshalStrict(body, &req); err != nil {
		s.refuse(w, &badRequest{"bad_json", err})
		return
	}
	st, err := s.mgr.SubmitShard(req)
	if err != nil {
		s.refuse(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// readBody reads a submission's body. When it cannot, it answers 413
// or 400, counts the rejection, and reports false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	// MaxBytesReader (unlike a bare LimitReader) also closes the
	// connection when the cap is blown, so an oversized upload cannot
	// keep streaming into a dead request.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.mgr.NoteRejectedInvalid()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", "request body exceeds 8 MiB")
		} else {
			writeError(w, http.StatusBadRequest, "bad_body", err.Error())
		}
		return nil, false
	}
	return body, true
}

// badRequest is a submission refused as malformed: 400 with its code,
// bad_json or invalid_request.
type badRequest struct {
	code string
	err  error
}

func (e *badRequest) Error() string { return e.err.Error() }

// refuse answers a submission that was not accepted: a malformed one
// with 400, counted as rejected_invalid; a full queue or a shutdown with
// 503 and Retry-After; anything else with 500.
func (s *Server) refuse(w http.ResponseWriter, err error) {
	var bad *badRequest
	switch {
	case errors.As(err, &bad):
		s.mgr.NoteRejectedInvalid()
		writeError(w, http.StatusBadRequest, bad.code, err.Error())
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "queue_full", err.Error())
	case errors.Is(err, ErrShuttingDown):
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusServiceUnavailable, "shutting_down", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// handleShardStatus is GET /v1/shards/{id}: lifecycle state, progress,
// and — once done — the records the coordinator merges.
func (s *Server) handleShardStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.ShardStatusOf(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleShardCancel is DELETE /v1/shards/{id}: stop a queued/running
// shard. Cancelling a terminal shard is a no-op returning its status
// (coordinators cancel best-effort during early stop, racing normal
// completion).
func (s *Server) handleShardCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.CancelShard(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleCircuits is GET /v1/circuits: the built-in benchmark table.
func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	names := maxpower.CircuitNames()
	infos := make([]CircuitInfo, 0, len(names))
	for _, n := range names {
		c, err := s.mgr.resolveCircuit(JobRequest{Circuit: n})
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		cs := c.ComputeStats()
		infos = append(infos, CircuitInfo{
			Name: cs.Name, Inputs: cs.Inputs, Outputs: cs.Outputs,
			Gates: cs.LogicGates, Depth: cs.Depth,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"circuits": infos})
}

// handleStats is GET /v1/stats: per-instance counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Stats())
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// unmarshalStrict decodes one JSON value rejecting unknown fields, so
// typos in request bodies fail loudly instead of silently taking
// defaults, and rejects anything but whitespace after that value, so a
// second value or trailing garbage is not silently dropped.
func unmarshalStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("unexpected data after the JSON value at byte %d", len(body)-len(rest))
	}
	return nil
}

// decodeJobRequest decodes and validates a job request body. On failure
// code is the API error code, bad_json or invalid_request.
func decodeJobRequest(body []byte) (req JobRequest, code string, err error) {
	if err := unmarshalStrict(body, &req); err != nil {
		return JobRequest{}, "bad_json", err
	}
	if err := req.Validate(isBuiltinCircuit); err != nil {
		return JobRequest{}, "invalid_request", err
	}
	return req, "", nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, apiError{Error: errorBody{Code: code, Message: msg}})
}
