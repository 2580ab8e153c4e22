package fleet

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/mapdsrv"
)

// Handler returns the router's HTTP surface: mapd's job API
// (mapdsrv.JobAPI) served over the router. mapd's job list, graphs,
// topologies, bench matrices and pprof stay on the replicas.
func (rt *Router) Handler() http.Handler { return mapdsrv.JobAPI(rt) }

// SubmitJob places one job on a replica by its spec hash and files it
// under a router-scoped ID, which the returned snapshot carries. Every
// spec decoded from JSON has a hash; one without (an in-memory graph or
// topology) routes under the empty key, still deterministically.
func (rt *Router) SubmitJob(ctx context.Context, spec engine.JobSpec) (engine.Job, error) {
	key, _ := engine.SpecHash(spec)
	rep, remote, err := rt.place(ctx, spec, key, nil)
	if err != nil {
		return engine.Job{}, err
	}
	remote.ID = rt.register(spec, key, rep, remote).id
	return remote, nil
}

// SubmitBatch expands the batch (engine.ExpandBatch) and scatters its
// jobs, each routed by its own spec hash. Jobs placed before a failure
// keep running; their IDs come back with the error.
func (rt *Router) SubmitBatch(ctx context.Context, batch engine.BatchSpec) ([]string, error) {
	specs, err := engine.ExpandBatch(batch)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		job, err := rt.SubmitJob(ctx, spec)
		if err != nil {
			return ids, err
		}
		ids = append(ids, job.ID)
	}
	return ids, nil
}

// GetJob proxies a snapshot, or with wait parks until the job is
// terminal; either survives replica death by requeue.
func (rt *Router) GetJob(ctx context.Context, id string, wait bool) (engine.Job, error) {
	rt.mu.Lock()
	rj, ok := rt.jobs[id]
	rt.mu.Unlock()
	if !ok {
		return engine.Job{}, fmt.Errorf("%w %q", engine.ErrUnknownJob, id)
	}
	job, err := rt.fetch(ctx, rj, wait)
	if err != nil {
		return engine.Job{}, err
	}
	job.ID = rj.id
	return job, nil
}

// fetch proxies one snapshot or wait call to the job's current
// placement, requeueing the job onto another replica when the current
// one is dead or has forgotten it. The wait variant loops: a requeue
// mid-wait is invisible to the client beyond added latency.
func (rt *Router) fetch(ctx context.Context, rj *routedJob, wait bool) (engine.Job, error) {
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
			select {
			case <-time.After(300 * time.Millisecond):
			case <-ctx.Done():
				return engine.Job{}, rqErr
			}
		}
		if !wait {
			rep2, remote2 := rj.placement()
			return rep2.client.GetJob(ctx, remote2)
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

// Stats aggregates per-replica health, breaker state and traffic with
// the fleet's totals; ?deep=1 inlines each replica's own /v1/stats.
func (rt *Router) Stats(r *http.Request) any {
	reps := make([]map[string]any, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		row := rep.stats()
		if r.URL.Query().Get("deep") == "1" {
			ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
			if up, err := rep.client.Stats(ctx); err == nil {
				row["upstream"] = up
			}
			cancel()
		}
		reps = append(reps, row)
	}
	rt.mu.Lock()
	routed := len(rt.jobs)
	rt.mu.Unlock()
	return map[string]any{
		"replicas":    reps,
		"usable":      rt.usableCount(),
		"failovers":   rt.failovers.Load(),
		"requeues":    rt.requeues.Load(),
		"routed_jobs": routed,
	}
}

// Health is router liveness plus the usable-replica count.
func (rt *Router) Health() any {
	return map[string]any{
		"status":   "ok",
		"replicas": len(rt.replicas),
		"usable":   rt.usableCount(),
	}
}

// Ready succeeds while at least one replica is usable.
func (rt *Router) Ready() (any, error) {
	n := rt.usableCount()
	if n == 0 {
		return nil, errNoReplica
	}
	return map[string]any{"status": "ready", "usable": n}, nil
}
