package main

import (
	"net/http"
	"strings"
	"time"
)

// layerMetrics are the per-layer numbers of the traced phase, plus the
// direct kernel calls and the tracing overhead. A layer the workload
// does not pass through (no client, router or replica on a batch
// workload) reports 0.
func (r *report) layerMetrics() map[string]metric {
	p, tr := r.traced, r.tr
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	per := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	attempted := len(p.outcomes)
	d := delta(p.before, p.after)

	// Client, router and replica spans.
	put("mapclient.submit_ms_p50", quantile(spanMS(tr.layerSpans(layerClientSubmit)), 0.5), "ms")
	put("mapclient.wait_ms_p50", quantile(spanMS(tr.layerSpans(layerClientWait)), 0.5), "ms")
	routerSelf, replicaSelf := tr.selfTimes(r.nodeJobs)
	put("fleet.self_ms_p50", quantile(routerSelf, 0.5), "ms")
	routed := 0
	for _, s := range tr.layerSpans(layerRouter) {
		if s.Method == http.MethodPost && s.Path == "/v1/jobs" && s.Status < 300 {
			routed++
		}
	}
	firstChoice, skew := 0.0, 0.0
	if routed > 0 {
		firstChoice = 1 - float64(d.failovers)/float64(routed)
	}
	if len(d.served) > 1 {
		most, total := int64(0), int64(0)
		for _, n := range d.served {
			most, total = max(most, n), total+n
		}
		if total > 0 {
			skew = float64(most) * float64(len(d.served)) / float64(total)
		}
	}
	put("fleet.first_choice_share", firstChoice, "ratio")
	put("fleet.replica_skew", skew, "ratio")
	put("mapdsrv.self_ms_p50", quantile(replicaSelf, 0.5), "ms")
	refused := 0
	for _, s := range tr.layerSpans(layerReplica) {
		if strings.HasPrefix(s.Path, "/v1/jobs") && (s.Status == http.StatusTooManyRequests || s.Status == http.StatusServiceUnavailable) {
			refused++
		}
	}
	put("mapdsrv.refused", float64(refused), "count")

	// Engine queue and workers, from the jobs the engines executed
	// during the traced phase (ledger-served jobs never reach a worker).
	var waits, runs []float64
	busy := time.Duration(0)
	stageS := map[string]float64{}
	reused, computed, executed := 0, 0, 0
	for _, nj := range r.nodeJobs {
		j := nj.job
		if !inWindow(j, p.start, p.stop) || j.Started.IsZero() || j.Finished.IsZero() ||
			(j.Result != nil && j.Result.ServedFromLedger) {
			continue
		}
		executed++
		waits = append(waits, ms(j.Started.Sub(j.Submitted)))
		runs = append(runs, ms(j.Finished.Sub(j.Started)))
		from, to := j.Started, j.Finished
		if from.Before(p.start) {
			from = p.start
		}
		if to.After(p.stop) {
			to = p.stop
		}
		busy += to.Sub(from)
		if j.Result == nil {
			continue
		}
		for _, st := range j.Result.Stages {
			stageS[st.Name] += st.Seconds
			if st.Name == "partition" {
				if j.Result.PartitionReused {
					reused++
				} else {
					computed++
				}
			}
		}
	}
	put("engine.queue_wait_ms_p50", quantile(waits, 0.5), "ms")
	put("engine.queue_wait_ms_p95", quantile(waits, 0.95), "ms")
	put("engine.run_ms_p50", quantile(runs, 0.5), "ms")
	put("engine.busy_share", per(busy.Seconds(), r.workers)/p.stop.Sub(p.start).Seconds(), "ratio")
	put("engine.wide_share", per(float64(d.wideJobs), executed), "ratio")

	// Artifact cache.
	lookups := d.art.Hits + d.art.InflightWaits + d.art.Misses
	hitRate := 0.0
	if lookups > 0 {
		hitRate = float64(d.art.Hits+d.art.InflightWaits) / float64(lookups)
	}
	put("artifacts.hit_rate", hitRate, "ratio")
	put("artifacts.partitions_computed", float64(computed), "count")
	put("artifacts.partitions_reused", float64(reused), "count")
	put("artifacts.evictions", float64(d.art.Evictions), "count")

	// Job ledger.
	put("jobstore.wal_records_per_job", per(float64(d.walRecords), attempted), "records/job")
	put("jobstore.wal_bytes_per_job", per(float64(max(0, d.walBytes)), attempted), "B/job")
	put("jobstore.dedup_share", per(float64(d.dedup), attempted), "ratio")

	// Pipeline stages.
	total := 0.0
	for _, s := range stageS {
		total += s
	}
	share := func(names ...string) float64 {
		sum := 0.0
		for _, n := range names {
			sum += stageS[n]
		}
		if total == 0 {
			return 0
		}
		return sum / total
	}
	for _, n := range []string{"topology", "graph", "partition", "drb", "map", "enhance"} {
		put("stage."+n+"_ms", per(stageS[n]*1000, executed), "ms")
	}
	put("stage.enhance_share", share("enhance"), "ratio")
	put("stage.base_share", share("partition", "drb", "map"), "ratio")
	put("stage.partition_drb_share", share("partition", "drb"), "ratio")

	// Direct kernel calls.
	ks := r.kernels
	put("topology.build_ms", per(ks.topologyMS, ks.n), "ms")
	put("netgen.generate_ms", per(ks.netgenMS, ks.n), "ms")
	put("partition.partition_ms", per(ks.partitionMS, ks.partitions), "ms")
	put("partition.cut", per(float64(ks.cut), ks.partitions), "count")
	put("mapping.drb_ms", per(ks.drbMS, ks.drbs), "ms")
	put("mapping.greedy_ms", per(ks.greedyMS, ks.greedies), "ms")
	put("core.enhance_ms", per(ks.enhanceMS, ks.n), "ms")
	put("core.us_per_hierarchy", per(ks.enhanceMS*1000, ks.hierarchies), "us")
	put("core.kept_share", per(float64(ks.kept), ks.hierarchies), "ratio")
	put("core.swaps_applied", per(float64(ks.swaps), ks.n), "count")

	// Process.
	put("process.cpu_ms_per_job", per(ms(d.proc.cpu), attempted), "ms/job")
	put("process.alloc_mb_per_job", per(float64(d.proc.alloc)/(1<<20), attempted), "MiB/job")
	put("process.gc_pause_ms", float64(d.proc.pauseNs)/1e6, "ms")

	// Tracing overhead: the same system untraced, then traced.
	put("trace.jobs_per_s_untraced", r.main.jobsPerSecond(), "jobs/s")
	put("trace.jobs_per_s_traced", p.jobsPerSecond(), "jobs/s")
	put("trace.latency_p50_ms_untraced", quantile(r.main.latenciesMS(), 0.5), "ms")
	put("trace.latency_p50_ms_traced", quantile(p.latenciesMS(), 0.5), "ms")
	return m
}

func spanMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.ms()
	}
	return out
}

// delta is after − before for every cumulative counter.
func delta(before, after counters) counters {
	d := counters{
		wideJobs:   after.wideJobs - before.wideJobs,
		walRecords: after.walRecords - before.walRecords,
		walBytes:   after.walBytes - before.walBytes,
		dedup:      after.dedup - before.dedup,
		failovers:  after.failovers - before.failovers,
		proc: procSnap{
			cpu:     after.proc.cpu - before.proc.cpu,
			alloc:   after.proc.alloc - before.proc.alloc,
			pauseNs: after.proc.pauseNs - before.proc.pauseNs,
		},
	}
	d.art.Hits = after.art.Hits - before.art.Hits
	d.art.Misses = after.art.Misses - before.art.Misses
	d.art.InflightWaits = after.art.InflightWaits - before.art.InflightWaits
	d.art.Evictions = after.art.Evictions - before.art.Evictions
	for i := range after.served {
		d.served = append(d.served, after.served[i]-before.served[i])
	}
	return d
}
