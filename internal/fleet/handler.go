package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/mapclient"
)

// Handler returns the router's HTTP surface — the same job protocol
// mapd speaks, so mapclient (and curl) work unchanged against a fleet:
//
//	POST /v1/jobs          route one job by its spec hash
//	POST /v1/batches       expand a batch and scatter its jobs
//	GET  /v1/jobs/{id}     proxy a snapshot (add ?wait=1 to park until
//	                       terminal; survives replica death by requeue)
//	GET  /v1/stats         per-replica health, breaker state, failovers
//	GET  /healthz          router liveness + usable-replica count
//	GET  /readyz           200 while ≥1 replica is usable, else 503
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.submitJob)
	mux.HandleFunc("POST /v1/batches", rt.submitBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.getJob)
	mux.HandleFunc("GET /v1/stats", rt.statsHandler)
	mux.HandleFunc("GET /healthz", rt.healthz)
	mux.HandleFunc("GET /readyz", rt.readyz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeUpstreamError translates a placement failure for the client:
// upstream API errors keep their status (and Retry-After becomes ours),
// transport-level failures and replica exhaustion become 503 +
// Retry-After — the fleet equivalent of "draining, come back".
func writeUpstreamError(w http.ResponseWriter, err error) {
	var apiErr *mapclient.APIError
	if errors.As(err, &apiErr) {
		if apiErr.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(apiErr.RetryAfter/time.Second)))
		}
		writeError(w, apiErr.Status, err)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, err)
}

func (rt *Router) submitJob(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var spec engine.JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	key := routingKey(spec, body)
	rep, remote, err := rt.place(r.Context(), spec, key, nil)
	if err != nil {
		writeUpstreamError(w, err)
		return
	}
	rj := rt.register(spec, key, rep, remote)
	remote.ID = rj.id
	writeJSON(w, http.StatusAccepted, remote)
}

func (rt *Router) submitBatch(w http.ResponseWriter, r *http.Request) {
	var batch engine.BatchSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding batch spec: %w", err))
		return
	}
	specs, err := engine.ExpandBatch(batch)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		specJSON, err := json.Marshal(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		key := routingKey(spec, specJSON)
		rep, remote, err := rt.place(r.Context(), spec, key, nil)
		if err != nil {
			// Jobs placed before the failure keep running; hand their
			// IDs back so the client can still track them, mirroring
			// mapd's own partial-batch contract.
			var apiErr *mapclient.APIError
			status := http.StatusServiceUnavailable
			if errors.As(err, &apiErr) {
				status = apiErr.Status
			}
			writeJSON(w, status, map[string]any{"error": err.Error(), "job_ids": ids})
			return
		}
		ids = append(ids, rt.register(spec, key, rep, remote).id)
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"job_ids": ids})
}

func (rt *Router) getJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	rj, ok := rt.jobs[id]
	rt.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	wait := r.URL.Query().Get("wait") == "1" || r.URL.Query().Get("wait") == "true"
	job, err := rt.fetch(r, rj, wait)
	if err != nil {
		writeUpstreamError(w, err)
		return
	}
	job.ID = rj.id
	writeJSON(w, http.StatusOK, job)
}

// fetch proxies one snapshot or wait call to the job's current
// placement, requeueing the job onto another replica when the current
// one is dead or has forgotten it. The wait variant loops: a requeue
// mid-wait is invisible to the client beyond added latency.
func (rt *Router) fetch(r *http.Request, rj *routedJob, wait bool) (engine.Job, error) {
	ctx := r.Context()
	for {
		rep, remoteID := rj.placement()
		var job engine.Job
		var err error
		if wait {
			job, err = rep.client.WaitJob(ctx, remoteID)
		} else {
			job, err = rep.client.GetJob(ctx, remoteID)
		}
		switch {
		case err == nil:
			rep.breaker.success()
			return job, nil
		case ctx.Err() != nil:
			return engine.Job{}, err
		case notFound(err):
			// The replica restarted past this job; move it. No breaker
			// penalty — the replica answered.
		case retryable(err):
			rep.breaker.failure()
			rep.failures.Add(1)
		default:
			return engine.Job{}, err
		}
		if rqErr := rt.requeue(ctx, rj, rep, remoteID); rqErr != nil {
			if !wait {
				return engine.Job{}, rqErr
			}
			// Every replica is briefly unusable (e.g. the fleet's sole
			// replica is restarting). Parked waiters ride it out.
			if sErr := sleepCtx(ctx, 300*time.Millisecond); sErr != nil {
				return engine.Job{}, rqErr
			}
		}
		if !wait {
			rep2, remote2 := rj.placement()
			job, err := rep2.client.GetJob(ctx, remote2)
			return job, err
		}
	}
}

func (rt *Router) usableCount() int {
	n := 0
	for _, rep := range rt.replicas {
		if rep.ready.Load() {
			n++
		}
	}
	return n
}

func (rt *Router) statsHandler(w http.ResponseWriter, r *http.Request) {
	reps := make([]map[string]any, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		row := rep.stats()
		if r.URL.Query().Get("deep") == "1" {
			if up := rep.decodeStats(r.Context()); up != nil {
				row["upstream"] = up
			}
		}
		reps = append(reps, row)
	}
	rt.mu.Lock()
	routed := len(rt.jobs)
	rt.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"replicas":    reps,
		"usable":      rt.usableCount(),
		"failovers":   rt.failovers.Load(),
		"requeues":    rt.requeues.Load(),
		"routed_jobs": routed,
	})
}

func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"replicas": len(rt.replicas),
		"usable":   rt.usableCount(),
	})
}

func (rt *Router) readyz(w http.ResponseWriter, r *http.Request) {
	if rt.usableCount() == 0 {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errNoReplica)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ready",
		"usable": rt.usableCount(),
	})
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
