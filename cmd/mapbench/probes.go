package main

import (
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/netgen"
)

// probes lists the reproducibility probes in the order mapbench runs
// them.
var probes = []probe{wideProbe, warmProbe, restartProbe, fleetProbe}

// wideProbe runs one big TIMER-dominant job sequentially (Engine.Run,
// which never widens) and then as a wide job on an otherwise idle
// pool, and records the wall-clock ratio in perf.wide_speedup and the
// wide run's width in perf.wide_width. The artifact cache is off so
// the wide run cannot reuse the sequential run's partition, the graph
// is pinned so netgen time is excluded, and an untimed NH-4 warm-up of
// both paths fills the topology cache, scratch pools and helper tokens
// first. On a single-CPU host the speedup floor is about 1: helpers
// only interleave.
var wideProbe = probe{
	name: "wide",
	jobs: func(seed int64) []engine.JobSpec {
		// Full-scale PGPgiantcompo makes trial evaluation, not
		// bookkeeping, dominate; NH 128 leaves a long all-rejected tail
		// after the early accepted trials, which is exactly the regime
		// speculation parallelizes.
		return []engine.JobSpec{{
			Graph:          engine.GraphSpec{Network: "PGPgiantcompo", Scale: 1},
			Topology:       "grid:8x8",
			Case:           engine.C2Identity,
			Seed:           seed,
			NumHierarchies: 128,
		}}
	},
	run: func(d *driver, specs []engine.JobSpec, perf *bench.RunPerf) error {
		for i := range specs {
			net, err := netgen.ByName(specs[i].Graph.Network)
			if err != nil {
				return d.fail("%w", err)
			}
			specs[i].Graph.G = net.Generate(specs[i].Graph.Scale, specs[i].Seed)
		}
		eng := engine.New(engine.Options{Workers: d.workers, QueueCap: 4, ArtifactCacheEntries: -1})
		defer eng.Close()
		wide := engineAPI(eng)
		wide.submit = func(s engine.JobSpec) (engine.Job, error) {
			s.Wide = true
			return eng.Submit(s)
		}

		warm := append([]engine.JobSpec(nil), specs...)
		for i := range warm {
			warm[i].NumHierarchies = 4
		}
		if _, err := d.reference(eng, warm); err != nil {
			return err
		}
		if _, err := d.runJobs(wide, warm); err != nil {
			return err
		}

		d.logf("%s@%g on %s, NH %d, %d workers", specs[0].Graph.Network, specs[0].Graph.Scale,
			specs[0].Topology, specs[0].NumHierarchies, d.workers)
		t0 := time.Now()
		want, err := d.reference(eng, specs)
		if err != nil {
			return err
		}
		seqSec := time.Since(t0).Seconds()
		t0 = time.Now()
		got, err := d.runJobs(wide, specs)
		if err != nil {
			return err
		}
		wideSec := time.Since(t0).Seconds()
		if err := d.same(want, got); err != nil {
			return err
		}
		perf.WideSpeedup, perf.WideWidth = seqSec/wideSec, got[0].Width
		d.logf("seq %.2fs, wide %.2fs -> speedup %.2fx at width %d (quality byte-identical)",
			seqSec, wideSec, perf.WideSpeedup, perf.WideWidth)
		return nil
	},
}

// warmProbe runs the job set on a cold engine over an empty cache
// directory, closes it, and reruns the set on a fresh engine over the
// now populated directory: a service restart in miniature. The specs
// pin no graph, so netgen and partitioning both go through the
// artifact cache and, on the warm run, are served from verified disk
// snapshots. The cold run is the reference; perf.warm_speedup is the
// cold/warm wall-time ratio and perf.disk_hit_rate the warm engine's
// snapshot-serving fraction, which must be above zero.
var warmProbe = probe{
	name: "warm",
	jobs: func(seed int64) []engine.JobSpec {
		// Twelve jobs whose graphs and partitions are all distinct
		// artifacts. NH 6 keeps TIMER small so the cacheable stages
		// dominate; assignments are included so the check compares full
		// mapping vectors, not just scalar metrics.
		var specs []engine.JobSpec
		for _, net := range []string{"p2p-Gnutella", "PGPgiantcompo"} {
			for _, topo := range []string{"grid:8x8", "hypercube:6"} {
				for s := int64(0); s < 3; s++ {
					specs = append(specs, engine.JobSpec{
						Graph:             engine.GraphSpec{Network: net, Scale: 0.5},
						Topology:          topo,
						Case:              engine.C2Identity,
						Seed:              seed + s,
						NumHierarchies:    6,
						IncludeAssignment: true,
					})
				}
			}
		}
		return specs
	},
	run: func(d *driver, specs []engine.JobSpec, perf *bench.RunPerf) error {
		dir, cleanup, err := d.tempDir()
		if err != nil {
			return err
		}
		defer cleanup()
		// runOnce runs the set on a fresh engine over dir and closes it,
		// so its write-through snapshots are on disk for the next run.
		runOnce := func() ([]engine.JobResult, float64, engine.DiskStats, error) {
			eng := engine.New(engine.Options{Workers: d.workers, CacheDir: dir})
			defer eng.Close()
			disk := func() *engine.DiskStats {
				if st := eng.Stats(); st.Artifacts != nil {
					return st.Artifacts.Disk
				}
				return nil
			}
			if ds := disk(); ds == nil || ds.Error != "" {
				return nil, 0, engine.DiskStats{}, d.fail("cache dir %s unusable: %+v", dir, ds)
			}
			t0 := time.Now()
			res, err := d.runJobs(engineAPI(eng), specs)
			return res, time.Since(t0).Seconds(), *disk(), err
		}

		d.logf("cold run on empty cache dir (%d workers)", d.workers)
		cold, coldSec, coldDisk, err := runOnce()
		if err != nil {
			return err
		}
		if coldDisk.Writes == 0 {
			return d.fail("cold run persisted no snapshots (dir %s)", dir)
		}
		d.logf("restart: fresh engine, same dir (%d snapshot files, %d bytes)", coldDisk.Files, coldDisk.Bytes)
		warm, warmSec, warmDisk, err := runOnce()
		if err != nil {
			return err
		}
		if err := d.same(cold, warm); err != nil {
			return err
		}
		if warmDisk.Hits == 0 {
			return d.fail("warm run had zero disk hits (%d misses, %d verify failures): restart stayed cold",
				warmDisk.Misses, warmDisk.VerifyFailures)
		}
		perf.WarmSpeedup, perf.DiskHitRate = coldSec/warmSec, warmDisk.HitRate()
		d.logf("cold %.2fs, warm %.2fs -> speedup %.2fx, disk hit rate %.0f%% (quality byte-identical)",
			coldSec, warmSec, perf.WarmSpeedup, 100*perf.DiskHitRate)
		return nil
	},
}

// ledgerJobs is the job set of the restart and fleet probes: eight
// generated-graph jobs with distinct seeds on two topologies, so every
// job is a distinct ledger entry and rendezvous hashing has distinct
// keys to spread. NH 8 is enough work that a drain or a kill lands
// mid-batch.
func ledgerJobs(seed int64) []engine.JobSpec {
	var specs []engine.JobSpec
	for _, topo := range []string{"grid:8x8", "hypercube:6"} {
		for s := int64(0); s < 4; s++ {
			specs = append(specs, engine.JobSpec{
				Graph:          engine.GraphSpec{Network: "p2p-Gnutella", Scale: 0.25},
				Topology:       topo,
				Case:           engine.C2Identity,
				Seed:           seed + s,
				NumHierarchies: 8,
			})
		}
	}
	return specs
}

// restartProbe is the durability acceptance test run as a benchmark.
// An engine on a fresh job ledger runs the set on a single worker and
// is drained after the first completion, so most of the batch is
// handed back to the ledger as interrupted. A second engine on the
// same ledger must requeue exactly the interrupted jobs under their
// original IDs and finish every job equal to the reference; then the
// whole set is resubmitted and must be served from the ledger with
// zero recomputes. perf.jobs_recovered and perf.dedup_served record
// the counts.
var restartProbe = probe{
	name: "restart",
	jobs: ledgerJobs,
	run: func(d *driver, specs []engine.JobSpec, perf *bench.RunPerf) error {
		ref := engine.New(engine.Options{Workers: d.workers})
		want, err := d.reference(ref, specs)
		ref.Close()
		if err != nil {
			return err
		}
		dir, cleanup, err := d.tempDir()
		if err != nil {
			return err
		}
		defer cleanup()

		// One worker, so the drain catches most of the batch still queued.
		eng := engine.New(engine.Options{Workers: 1, JobDir: dir})
		ids, err := d.submitAll(engineAPI(eng), specs)
		if err == nil {
			_, err = eng.Wait(ids[0])
		}
		if drainErr := eng.DrainAndClose(5 * time.Minute); drainErr != nil {
			return d.fail("drain: %w", drainErr)
		}
		if err != nil {
			return err
		}
		interrupted := 0
		for _, id := range ids {
			if job, ok := eng.Get(id); ok && job.Status == engine.StatusInterrupted {
				interrupted++
			}
		}
		if interrupted == 0 {
			return d.fail("drain interrupted nothing: the batch finished before the drain")
		}
		d.logf("drained mid-batch: %d of %d jobs interrupted", interrupted, len(specs))

		t0 := time.Now()
		rec := engine.New(engine.Options{Workers: d.workers, JobDir: dir})
		defer rec.Close()
		if st := rec.Stats().JobStore; st == nil || st.Error != "" {
			return d.fail("recovery engine has no ledger: %+v", st)
		} else if st.JobsRecovered != interrupted {
			return d.fail("recovered %d jobs, want %d", st.JobsRecovered, interrupted)
		}
		got, err := d.waitAll(engineAPI(rec), ids)
		if err != nil {
			return err
		}
		if err := d.same(want, got); err != nil {
			return err
		}
		recoverySec := time.Since(t0).Seconds()

		served := rec.Stats().JobsServed
		for i, spec := range specs {
			dup, err := rec.Submit(spec)
			if err != nil {
				return d.fail("resubmit job %d: %w", i, err)
			}
			if dup.Status != engine.StatusDone || dup.Result == nil || !dup.Result.ServedFromLedger {
				return d.fail("duplicate of job %d not served from the ledger", i)
			}
		}
		st := rec.Stats()
		if st.JobsServed != served {
			return d.fail("duplicates recomputed (%d jobs served during resubmission)", st.JobsServed-served)
		}
		perf.JobsRecovered, perf.DedupServed = st.JobStore.JobsRecovered, st.JobStore.DedupServed
		d.logf("%d interrupted jobs recovered byte-identical in %.2fs, %d duplicates ledger-served (0 recomputes), WAL %d records / %d bytes",
			perf.JobsRecovered, recoverySec, perf.DedupServed, st.JobStore.WALRecords, st.JobStore.WALBytes)
		return nil
	},
}

// fleetReplicas and fleetWorkers size the fleet probe: three
// single-worker replicas, so the fleet's parallelism comes from the
// replica count, not from width inside a replica.
const (
	fleetReplicas = 3
	fleetWorkers  = 1
)

// fleetProbe runs the job set through maprouter over real HTTP
// replicas hosted in-process. First it times the set through one
// replica and through the full fleet: same protocol, same router
// overhead, only the replica count differs, and the ratio lands in
// perf.fleet_speedup. Then it reruns the set on a fresh fleet and kills
// the home replica of the first job mid-batch; the set must still
// complete equal to the reference with at least one failover, counted
// in perf.failovers.
var fleetProbe = probe{
	name: "fleet",
	jobs: ledgerJobs,
	run: func(d *driver, specs []engine.JobSpec, perf *bench.RunPerf) error {
		ref := engine.New(engine.Options{Workers: d.workers})
		want, err := d.reference(ref, specs)
		ref.Close()
		if err != nil {
			return err
		}

		var secs [2]float64
		for i, n := range []int{1, fleetReplicas} {
			f, err := d.startFleet(n, fleetWorkers)
			if err != nil {
				return err
			}
			t0 := time.Now()
			got, err := d.runJobs(f.api, specs)
			secs[i] = time.Since(t0).Seconds()
			f.close()
			if err != nil {
				return err
			}
			if err := d.same(want, got); err != nil {
				return err
			}
			d.logf("%d replica(s) × %d worker(s): %.2fs", n, fleetWorkers, secs[i])
		}

		f, err := d.startFleet(fleetReplicas, fleetWorkers)
		if err != nil {
			return err
		}
		defer f.close()
		// The victim is the first job's home replica, so the kill is
		// guaranteed to orphan a placement.
		key, ok := engine.SpecHash(specs[0])
		if !ok {
			return d.fail("job 0 has no spec hash")
		}
		victim := f.router.HomeOf(key)
		ids, err := d.submitAll(f.api, specs)
		if err != nil {
			return err
		}
		f.kill(victim)
		got, err := d.waitAll(f.api, ids)
		if err != nil {
			return err
		}
		if err := d.same(want, got); err != nil {
			return err
		}
		if f.router.Failovers() == 0 {
			return d.fail("the kill caused no failover: it landed after the victim finished")
		}
		perf.FleetSpeedup, perf.Failovers = secs[0]/secs[1], f.router.Failovers()
		d.logf("%.2fx fleet speedup; chaos kill survived with %d failovers, %d requeues, results byte-identical",
			perf.FleetSpeedup, perf.Failovers, f.router.Requeues())
		return nil
	},
}
