package main

import (
	"runtime"
	"sort"
	"strings"

	"repro/internal/engine"
)

// workload is one named set of inputs the benchmark runs. Every input
// is derived from the run's seed; the system under test only receives
// the generated job specs.
type workload struct {
	name string
	// topologies are prewarmed during set-up.
	topologies []string
	// minJobs is how many leading jobs of the sequence every run
	// completes, however short its window: they form the golden and the
	// coco_quotient_gm sets, so those stay deterministic per seed.
	minJobs int
	// kernelSamples bounds the jobs whose pipeline the traced run
	// replays through direct kernel calls.
	kernelSamples int
	// overHTTP marks results that travel through the client, router and
	// replicas; each is compared with an in-process engine.Run.
	overHTTP bool
	// newSystem builds the system under test; tr is nil when untraced.
	newSystem func(cfg config, dir string, tr *tracer) (system, error)
}

var workloads = map[string]*workload{}

// loadWidth is the number of batch workers and of serve-small clients:
// two, or fewer on a machine with fewer CPUs, so the load never
// oversubscribes the machine.
var loadWidth = min(2, runtime.NumCPU())

// artifactCacheBytes bounds every engine's artifact cache. Each job's
// reuse happens within its own round (or, on serve-small, not at all),
// so 8 MiB holds the live set, and peak_rss_mb reaches its steady state
// early in the window instead of growing with the number of jobs done.
const artifactCacheBytes = 8 << 20

// register adds w to the workload table at start-up.
func register(w *workload) *workload {
	workloads[w.name] = w
	return w
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// paper-enhance is the paper's Section 7 shape: cases c2–c4 compared on
// a shared partition per (graph, repetition), NH = 50, so TIMER
// dominates. Each round is one repetition with its own seed; its 18
// jobs share 2 partitions (one per graph, as all three topologies have
// 256 PEs), so 16 of 18 partition lookups hit the artifact cache.
var paperTopologies = []string{"grid:16x16", "torus:16x16", "hypercube:8"}

var _ = register(&workload{
	name:          "paper-enhance",
	topologies:    paperTopologies,
	minJobs:       36,
	kernelSamples: 8,
	newSystem: func(cfg config, _ string, _ *tracer) (system, error) {
		return newBatchSystem(cfg, 18, paperEnhanceRound)
	},
})

func paperEnhanceRound(seed int64, r int) []engine.BatchSpec {
	graphs := []engine.GraphSpec{
		{Network: "p2p-Gnutella", Scale: 0.5},
		{Network: "PGPgiantcompo", Scale: 0.5},
	}
	var out []engine.BatchSpec
	for _, c := range []engine.Case{engine.C2Identity, engine.C3GreedyAllC, engine.C4GreedyMin} {
		out = append(out, engine.BatchSpec{
			Graphs:          graphs,
			Topologies:      paperTopologies,
			Case:            c,
			Seed:            mix(seed, int64(r)),
			NumHierarchies:  50,
			SharedPartition: true,
		})
	}
	return out
}

// fresh-partition gives every job its own netgen graph seed, so graph
// and partition lookups miss and the base stage (multilevel partition
// or DRB on 256–1024 PEs) dominates; NH = 2 keeps TIMER small. It is
// the control on which TIMER and cache-hit changes should not move.
var freshTopologies = []string{"hypercube:10", "torus:16x16", "grid:16x16"}

var _ = register(&workload{
	name:          "fresh-partition",
	topologies:    freshTopologies,
	minJobs:       36,
	kernelSamples: 12,
	newSystem: func(cfg config, _ string, _ *tracer) (system, error) {
		return newBatchSystem(cfg, 36, freshPartitionRound)
	},
})

func freshPartitionRound(seed int64, r int) []engine.BatchSpec {
	nets := []string{"p2p-Gnutella", "PGPgiantcompo", "as-22july06", "email-EuAll"}
	cases := []engine.Case{engine.C1SCOTCH, engine.C3GreedyAllC, engine.C4GreedyMin}
	var out []engine.BatchSpec
	for ti, topo := range freshTopologies {
		for ci, c := range cases {
			graphs := make([]engine.GraphSpec, len(nets))
			for gi, n := range nets {
				graphs[gi] = engine.GraphSpec{Network: n, Scale: 0.5, Seed: mix(seed, int64(r), int64(ti), int64(ci), int64(gi))}
			}
			out = append(out, engine.BatchSpec{
				Graphs:         graphs,
				Topologies:     []string{topo},
				Case:           c,
				Seed:           mix(seed, int64(r)),
				NumHierarchies: 2,
			})
		}
	}
	return out
}

// serve-small is an online closed loop: 2 clients (loadWidth) each send a small job
// through mapclient → maprouter → 2 mapd replicas and wait for it before
// sending the next. It is the only workload where the client, router,
// HTTP/admission and WAL layers do visible work.
var serveTopologies = []string{"grid:4x4", "torus:4x4", "hypercube:4"}

var _ = register(&workload{
	name:          "serve-small",
	topologies:    serveTopologies,
	minJobs:       100,
	kernelSamples: 40,
	overHTTP:      true,
	newSystem:     newServeSystem,
})

// serveSpec is job i of the serve-small sequence. About one job in five
// repeats an earlier spec, so the replicas' ledger read path runs beside
// the WAL write path; the others are fresh small jobs (graphs at scale
// 0.05 on 16-PE topologies, NH = 10).
func serveSpec(seed int64, i int, earlier []engine.JobSpec) engine.JobSpec {
	h := mix(seed, int64(i))
	pick := func(n int) int {
		v := int(h % int64(n))
		h = mix(h, int64(n))
		return v
	}
	if i >= 8 && i%5 == 4 {
		return earlier[pick(i-4)]
	}
	nets := []string{"p2p-Gnutella", "PGPgiantcompo", "as-22july06", "email-EuAll"}
	cases := []engine.Case{engine.C1SCOTCH, engine.C2Identity, engine.C3GreedyAllC, engine.C4GreedyMin}
	spec := engine.JobSpec{
		Graph:          engine.GraphSpec{Network: nets[pick(len(nets))], Scale: 0.05},
		Topology:       serveTopologies[pick(len(serveTopologies))],
		Case:           cases[pick(len(cases))],
		NumHierarchies: 10,
	}
	spec.Graph.Seed = h
	spec.Seed = mix(h, 1)
	return spec
}

// mix derives a positive 31-bit seed from its arguments (splitmix64).
func mix(vals ...int64) int64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		x ^= uint64(v)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x>>33) + 1
}
