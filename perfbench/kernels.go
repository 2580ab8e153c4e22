package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/topology"
)

// kernelStats sums the direct kernel calls of the traced run. Each
// total is over the calls that ran; n counts the replayed jobs.
type kernelStats struct {
	n                        int
	topologyMS, netgenMS     float64
	partitions               int
	partitionMS              float64
	cut                      int64
	drbs                     int
	drbMS                    float64
	greedies                 int
	greedyMS                 float64
	enhanceMS                float64
	hierarchies, kept, swaps int
}

// runKernels replays a sample of up to limit done jobs single-threaded
// through the public kernel entry points, with each job's own resolved
// spec, and times every call as a span. The sample is a seeded shuffle,
// so it does not follow the workload's round structure. The replay must
// reproduce the engine's result; a mismatch fails the job.
func runKernels(tr *tracer, seed int64, outs []outcome, limit int, fail func(int, error)) *kernelStats {
	var picked []*outcome
	for i := range outs {
		if outs[i].ok() {
			picked = append(picked, &outs[i])
		}
	}
	sort.Slice(picked, func(a, b int) bool {
		return mix(seed, int64(picked[a].index)) < mix(seed, int64(picked[b].index))
	})
	picked = picked[:min(limit, len(picked))]
	ks := &kernelStats{}
	for _, o := range picked {
		if err := ks.replay(tr, o.job); err != nil {
			fail(o.index, fmt.Errorf("kernel replay: %w", err))
		}
	}
	return ks
}

// timed runs f as a span of layer and returns its duration in ms.
func timed(tr *tracer, layer, id string, f func()) float64 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	tr.add(span{Layer: layer, ID: id, Start: tr.at(t0), End: tr.at(t1)})
	return ms(t1.Sub(t0))
}

func (ks *kernelStats) replay(tr *tracer, job engine.Job) error {
	spec, want := job.Spec, job.Result
	ks.n++

	var topo *topology.Topology
	var err error
	ks.topologyMS += timed(tr, "kernel.topology.build", job.ID, func() {
		var ts topology.Spec
		if ts, err = topology.ParseSpec(spec.Topology); err == nil {
			topo, err = ts.Build()
		}
	})
	if err != nil {
		return err
	}
	net, err := netgen.ByName(spec.Graph.Network)
	if err != nil {
		return err
	}
	var g *graph.Graph
	ks.netgenMS += timed(tr, "kernel.netgen.generate", job.ID, func() {
		g = net.Generate(spec.Graph.Scale, spec.Graph.Seed)
	})

	var assign []int32
	if spec.Case == engine.C1SCOTCH {
		ks.drbs++
		ks.drbMS += timed(tr, "kernel.mapping.drb", job.ID, func() {
			assign, err = mapping.DRB(g, topo, mapping.DRBConfig{Epsilon: spec.Epsilon, Seed: spec.Seed, Fast: true})
		})
		if err != nil {
			return err
		}
	} else {
		pseed := spec.PartitionSeed
		if pseed == 0 {
			pseed = spec.Seed
		}
		var part *partition.Result
		ks.partitions++
		ks.partitionMS += timed(tr, "kernel.partition.partition", job.ID, func() {
			part, err = partition.Partition(g, partition.Config{K: topo.P(), Epsilon: spec.Epsilon, Seed: pseed})
		})
		if err != nil {
			return err
		}
		ks.cut += part.Cut
		switch spec.Case {
		case engine.C2Identity:
			assign = mapping.FromPartition(part.Part)
		case engine.C3GreedyAllC, engine.C4GreedyMin:
			construct := mapping.GreedyAllC
			if spec.Case == engine.C4GreedyMin {
				construct = mapping.GreedyMin
			}
			var nu []int32
			ks.greedies++
			ks.greedyMS += timed(tr, "kernel.mapping.greedy", job.ID, func() {
				nu, err = construct(mapping.CommGraph(g, part.Part, topo.P()), topo)
			})
			if err != nil {
				return err
			}
			assign = mapping.Compose(part.Part, nu)
		default:
			return fmt.Errorf("case %v has no kernel replay", spec.Case)
		}
	}

	var res *core.Result
	ks.enhanceMS += timed(tr, "kernel.core.enhance", job.ID, func() {
		res, err = core.Enhance(g, topo, assign, core.Options{
			NumHierarchies: spec.NumHierarchies,
			Seed:           spec.Seed,
			Workers:        spec.TimerWorkers,
			SwapRounds:     spec.SwapRounds,
		})
	})
	if err != nil {
		return err
	}
	ks.hierarchies += spec.NumHierarchies
	ks.kept += res.HierarchiesKept
	ks.swaps += res.SwapsApplied

	before := mapping.Coco(g, assign, topo)
	if before != want.CocoBefore || res.CocoAfter != want.CocoAfter ||
		res.HierarchiesKept != want.HierarchiesKept || res.SwapsApplied != want.SwapsApplied {
		return fmt.Errorf("replay gives coco %d→%d, %d kept, %d swaps; engine gave %d→%d, %d kept, %d swaps",
			before, res.CocoAfter, res.HierarchiesKept, res.SwapsApplied,
			want.CocoBefore, want.CocoAfter, want.HierarchiesKept, want.SwapsApplied)
	}
	return nil
}
