package mapdsrv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/mapclient"
)

// Backend is what the job API serves over: mapd's engine (New) or
// fleet.Router (JobAPI). It returns engine sentinels, upstream
// *mapclient.APIErrors or transport errors; errorStatus, not the
// backend, picks the HTTP status. SubmitBatch returns the IDs accepted
// before an error alongside it (those jobs keep running); GetJob with
// wait blocks until the job is terminal or ctx ends. Stats, Health and
// Ready are the /v1/stats, /healthz and /readyz documents; a Ready
// error answers 503 + Retry-After so routers and load balancers
// de-pool.
type Backend interface {
	SubmitJob(ctx context.Context, spec engine.JobSpec) (engine.Job, error)
	SubmitBatch(ctx context.Context, batch engine.BatchSpec) ([]string, error)
	GetJob(ctx context.Context, id string, wait bool) (engine.Job, error)
	Stats(r *http.Request) any
	Health() any
	Ready() (any, error)
}

// jobAPI is the one HTTP contract of the job API, shared by mapd and
// maprouter so the two cannot drift:
//
//	POST /v1/jobs          submit one job (engine.JobSpec JSON): 202 + snapshot
//	POST /v1/batches       submit a batch (engine.BatchSpec JSON): 202 +
//	                       {"job_ids": [...]} in fan-out order
//	GET  /v1/jobs/{id}     one job: status, stage timings, result;
//	                       ?wait=1 (or ?wait=true) blocks until terminal
//	GET  /v1/stats         the backend's statistics
//	GET  /healthz          liveness: always 200 while the process serves
//	GET  /readyz           readiness: 200 while accepting work, else
//	                       503 + Retry-After
//
// Bodies are capped at maxBody and decoded strictly: malformed JSON and
// unknown fields are 400s naming the problem. Errors are
// {"error": "..."}; a batch refused partway adds "job_ids", the jobs
// accepted before the refusal, which keep running. Statuses and
// Retry-After come from errorStatus.
//
// mapd serves further routes beside this table: the job list (GET
// /v1/jobs), graphs, topologies, bench matrices and pprof (see server),
// and it runs quota admission before every submission. maprouter
// serves the table alone.
type jobAPI struct {
	b       Backend
	maxBody int64
	// admit runs before a submission is decoded; nil admits everything.
	admit func(*http.Request) error
	// shedTotal counts every response that carried a Retry-After.
	shedTotal atomic.Int64
}

// JobAPI returns the job API served over b alone, with the default
// body cap and no admission control: maprouter's HTTP surface.
func JobAPI(b Backend) http.Handler {
	mux := http.NewServeMux()
	(&jobAPI{b: b, maxBody: maxBodyBytes}).mount(mux)
	return mux
}

func (a *jobAPI) mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", a.submitJob)
	mux.HandleFunc("POST /v1/batches", a.submitBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", a.getJob)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, a.b.Stats(r))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, a.b.Health())
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		doc, err := a.b.Ready()
		a.reply(w, http.StatusOK, doc, err)
	})
}

// decode admits a submission and decodes its body into v, answering
// and returning false on failure.
func (a *jobAPI) decode(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	if a.admit != nil {
		if err := a.admit(r); err != nil {
			a.fail(w, err)
			return false
		}
	}
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, a.maxBody), what, v); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// decodeStrict decodes one JSON value into v, refusing unknown fields.
func decodeStrict(body io.Reader, what string, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	return nil
}

func (a *jobAPI) submitJob(w http.ResponseWriter, r *http.Request) {
	var spec engine.JobSpec
	if !a.decode(w, r, "job spec", &spec) {
		return
	}
	job, err := a.b.SubmitJob(r.Context(), spec)
	a.reply(w, http.StatusAccepted, job, err)
}

func (a *jobAPI) submitBatch(w http.ResponseWriter, r *http.Request) {
	var batch engine.BatchSpec
	if !a.decode(w, r, "batch spec", &batch) {
		return
	}
	ids, err := a.b.SubmitBatch(r.Context(), batch)
	if err != nil {
		writeJSON(w, a.status(w, err), map[string]any{"error": err.Error(), "job_ids": ids})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"job_ids": ids})
}

// getJob answers one snapshot. A waiting request whose client went
// away gets no answer: the job keeps running, the handler returns.
func (a *jobAPI) getJob(w http.ResponseWriter, r *http.Request) {
	wait := r.URL.Query().Get("wait")
	job, err := a.b.GetJob(r.Context(), r.PathValue("id"), wait == "1" || wait == "true")
	if err == nil || r.Context().Err() == nil {
		a.reply(w, http.StatusOK, job, err)
	}
}

// reply answers v under status, or err in the {"error"} envelope under
// its mapped status.
func (a *jobAPI) reply(w http.ResponseWriter, status int, v any, err error) {
	if err != nil {
		a.fail(w, err)
		return
	}
	writeJSON(w, status, v)
}

// fail answers err in the {"error"} envelope under its mapped status.
func (a *jobAPI) fail(w http.ResponseWriter, err error) {
	writeError(w, a.status(w, err), err)
}

// status maps err, sets its Retry-After header and counts the shed.
func (a *jobAPI) status(w http.ResponseWriter, err error) int {
	status, retryAfter := errorStatus(err)
	if retryAfter > 0 {
		a.shedTotal.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	return status
}

// Retry-After bases: a drain lasts about a restart; a full queue
// drains at pipeline speed and a fleet re-probes replicas well within
// a second.
const (
	drainRetryAfter       = 5 * time.Second
	unavailableRetryAfter = 1 * time.Second
)

// errorStatus is the job API's one error → HTTP mapping. It returns the
// status and the Retry-After in seconds (0: no header). An upstream
// replica's answer, relayed by maprouter, keeps its status and
// Retry-After; anything unclassified (a closed engine, a transport
// failure, no usable replica) is a 503 worth retrying shortly.
func errorStatus(err error) (status, retryAfter int) {
	var upstream *mapclient.APIError
	var quota *quotaError
	switch {
	case errors.As(err, &upstream):
		return upstream.Status, int(upstream.RetryAfter / time.Second)
	case errors.As(err, &quota):
		return http.StatusTooManyRequests, retryAfterSeconds(quota.wait)
	case errors.Is(err, engine.ErrInvalidSpec):
		return http.StatusBadRequest, 0
	case errors.Is(err, engine.ErrUnknownJob):
		return http.StatusNotFound, 0
	case errors.Is(err, engine.ErrQueueFull):
		// Overload, not outage: back off and retry.
		return http.StatusTooManyRequests, retryAfterSeconds(unavailableRetryAfter)
	case errors.Is(err, engine.ErrDraining):
		return http.StatusServiceUnavailable, retryAfterSeconds(drainRetryAfter)
	default:
		return http.StatusServiceUnavailable, retryAfterSeconds(unavailableRetryAfter)
	}
}

// writeJSON writes v as indented JSON under status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes the {"error": ...} envelope under status.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
