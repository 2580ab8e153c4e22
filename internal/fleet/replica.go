package fleet

import (
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/mapclient"
)

// Replica is one mapd process in the fleet: its base URL, a resilient
// client scoped to it, its circuit breaker, and the health state the
// prober maintains.
type Replica struct {
	// Name is the replica's base URL — both its identity in the
	// rendezvous ranking and its address.
	Name string

	client  *mapclient.Client
	breaker *breaker

	ready    atomic.Bool // readiness probe verdict (drain-aware)
	draining atomic.Bool // replica alive but shedding for shutdown

	// submits/failures/failovers count this replica's traffic for the
	// aggregated stats: jobs placed here, requests it failed, and jobs
	// moved OFF it by failover.
	submits   atomic.Int64
	failures  atomic.Int64
	failovers atomic.Int64
}

func newReplica(name string, cfg Config) *Replica {
	return &Replica{
		Name: name,
		// The router does its own failover across replicas, so the
		// per-replica client retries only lightly: one retry absorbs a
		// blip, anything worse should trip the breaker and move on.
		client: mapclient.New(name, mapclient.Config{
			ClientID:       cfg.ClientID,
			MaxAttempts:    2,
			AttemptTimeout: cfg.UpstreamTimeout,
			BaseBackoff:    50 * time.Millisecond,
			MaxBackoff:     250 * time.Millisecond,
		}),
		breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
}

// usable reports whether the router may place or proxy work here:
// last probe said ready, and the breaker admits traffic. The breaker
// check is also the half-open admission, so a cooled-down replica gets
// its trial request through regular routing.
func (r *Replica) usable() bool {
	return r.ready.Load() && r.breaker.allow()
}

// probe runs one health check: GET /readyz with a short deadline,
// bypassing the retry loop (a prober wants the truth now, not a
// masked answer). The verdict updates ready/draining and feeds the
// breaker, so a recovering replica's first green probe recloses a
// half-open breaker without waiting for live traffic to gamble on it.
func (r *Replica) probe(ctx context.Context, timeout time.Duration) {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, r.Name+"/readyz", nil)
	if err != nil {
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		r.ready.Store(false)
		r.draining.Store(false)
		if r.breaker.allow() {
			// Only charge the breaker when it would have admitted
			// traffic: an already-open breaker's cooldown must run on
			// the clock, not be re-armed by every probe.
			r.breaker.failure()
		}
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	switch {
	case resp.StatusCode == http.StatusOK:
		r.ready.Store(true)
		r.draining.Store(false)
		r.breaker.success()
	case resp.StatusCode == http.StatusServiceUnavailable:
		// Draining: alive but depooled. Not a breaker failure — the
		// process is answering; it is telling us to route elsewhere.
		r.ready.Store(false)
		r.draining.Store(true)
	default:
		r.ready.Store(false)
		r.draining.Store(false)
		if r.breaker.allow() {
			r.breaker.failure()
		}
	}
}

// stats renders the replica's row of the aggregated /v1/stats.
func (r *Replica) stats() map[string]any {
	state, fails, trips := r.breaker.snapshot()
	return map[string]any{
		"url":           r.Name,
		"ready":         r.ready.Load(),
		"draining":      r.draining.Load(),
		"breaker":       state,
		"breaker_fails": fails,
		"breaker_trips": trips,
		"submits":       r.submits.Load(),
		"failures":      r.failures.Load(),
		"failovers_off": r.failovers.Load(),
		"retries":       r.client.Retries(),
	}
}

// healthLoop probes the replica every interval until ctx is done. An
// initial probe runs immediately so the router starts with a verdict
// instead of a grace period of guessing.
func (r *Replica) healthLoop(ctx context.Context, interval, timeout time.Duration) {
	r.probe(ctx, timeout)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.probe(ctx, timeout)
		}
	}
}
