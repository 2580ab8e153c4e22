package fleet

// Test-only windows into router internals for the external fleet_test
// package, whose tests stand up real mapd replicas (mapdsrv) and reach
// the router only through its exported API and these accessors.

// UsableCountForTest reports how many replicas are ready with an
// admitting breaker.
func (rt *Router) UsableCountForTest() int { return rt.usableCount() }

// ReplicasForTest exposes the replica set for white-box assertions.
func (rt *Router) ReplicasForTest() []*Replica { return rt.replicas }

// SubmitsForTest reports how many submissions this replica accepted.
func (r *Replica) SubmitsForTest() int64 { return r.submits.Load() }

// ReadyForTest reports the prober's current readiness verdict.
func (r *Replica) ReadyForTest() bool { return r.ready.Load() }

// BreakerForTest snapshots the replica's circuit breaker.
func (r *Replica) BreakerForTest() (state string, fails int, trips int64) {
	return r.breaker.snapshot()
}
