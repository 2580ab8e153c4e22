package mapping

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/topology"
)

// DRBConfig controls the dual recursive bipartitioning mapper.
type DRBConfig struct {
	// Epsilon is the per-level balance slack (default 0.03).
	Epsilon float64
	Seed    int64
	// Fast selects cheaper bisection parameters (fewer initial tries,
	// fewer FM passes, earlier coarsening stop). SCOTCH's generic mapper
	// is much faster than a full KaHIP partition (the paper measures it
	// at ~19× on average); Fast reproduces that speed/quality trade-off.
	Fast bool
}

// DRB maps ga onto topo by dual recursive bipartitioning (paper case c1;
// the strategy of SCOTCH's generic mapping routine, Pellegrini [22]):
// the PE set is split in half along a partial-cube digit (a convex cut
// of Gp), the application (sub)graph is bisected with matching weight
// proportions, and the halves are assigned to each other recursively.
//
// It returns the assignment vector Va → PE.
func DRB(ga *graph.Graph, topo *topology.Topology, cfg DRBConfig) ([]int32, error) {
	sc := getScratch()
	assign, err := sc.DRB(ga, topo, cfg)
	putScratch(sc)
	return assign, err
}

// DRB is the scratch form of the package-level DRB: all recursion state
// (split lists, induced subgraphs, bisection hierarchies) lives in the
// scratch, so a warm call allocates only the returned assignment.
func (sc *Scratch) DRB(ga *graph.Graph, topo *topology.Topology, cfg DRBConfig) ([]int32, error) {
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.03
	}
	if err := partition.CheckEpsilon(cfg.Epsilon); err != nil {
		return nil, err
	}
	if ga.N() < topo.P() {
		return nil, fmt.Errorf("mapping: application graph has %d vertices for %d PEs", ga.N(), topo.P())
	}
	pcfg := partition.Config{K: 2, Epsilon: cfg.Epsilon, Seed: cfg.Seed, Scratch: sc.Partition}
	if cfg.Fast {
		pcfg.InitialTries = 2
		pcfg.FMPasses = 1
		pcfg.CoarsestSize = 400
	}
	rng := sc.seedRNG(cfg.Seed)
	assign := make([]int32, ga.N())
	pes := graph.Resize(sc.pes, topo.P())
	for i := range pes {
		pes[i] = int32(i)
	}
	verts := graph.Resize(sc.verts, ga.N())
	for i := range verts {
		verts[i] = int32(i)
	}
	sc.pes, sc.verts = pes, verts
	sc.drbRecurse(ga, topo, pcfg, rng, verts, pes, assign, 0)
	return assign, nil
}

// drbRecurse assigns the vertices of sub (a subset of the original Ga,
// as an induced subgraph with ids verts) to the PE subset pes. depth
// indexes the scratch's per-recursion-level storage.
func (sc *Scratch) drbRecurse(sub *graph.Graph, topo *topology.Topology, pcfg partition.Config,
	rng *rand.Rand, verts, pes []int32, assign []int32, depth int) {
	if len(pes) == 1 {
		for _, v := range verts {
			assign[v] = pes[0]
		}
		return
	}
	// All depth-state writes happen before recursing: deeper calls may
	// grow sc.depths and invalidate the pointer.
	ds := sc.depth(depth)
	pesL, pesR := splitPEsInto(topo, pes, ds.pesL[:0], ds.pesR[:0])
	fracL := float64(len(pesL)) / float64(len(pes))

	side := bisectProportional(sub, pcfg, rng, fracL)

	leftIdx, rightIdx := ds.leftIdx[:0], ds.rightIdx[:0]
	for v := 0; v < sub.N(); v++ {
		if side[v] == 0 {
			leftIdx = append(leftIdx, int32(v))
		} else {
			rightIdx = append(rightIdx, int32(v))
		}
	}
	subL, subR := ds.gL, ds.gR
	sc.remap = graph.InducedSubgraphInto(subL, sub, leftIdx, sc.remap)
	sc.remap = graph.InducedSubgraphInto(subR, sub, rightIdx, sc.remap)
	vertsL := graph.Resize(ds.vertsL, len(leftIdx))
	for i, v := range leftIdx {
		vertsL[i] = verts[v]
	}
	vertsR := graph.Resize(ds.vertsR, len(rightIdx))
	for i, v := range rightIdx {
		vertsR[i] = verts[v]
	}
	ds.leftIdx, ds.rightIdx = leftIdx, rightIdx
	ds.vertsL, ds.vertsR = vertsL, vertsR
	ds.pesL, ds.pesR = pesL, pesR

	sc.drbRecurse(subL, topo, pcfg, rng, vertsL, pesL, assign, depth+1)
	sc.drbRecurse(subR, topo, pcfg, rng, vertsR, pesR, assign, depth+1)
}

// splitPEsInto halves a PE subset along the label digit that divides it
// most evenly — a convex cut of the processor graph, which is exactly
// how a partial cube decomposes recursively (paper Section 2). The
// halves are appended to the provided buffers.
func splitPEsInto(topo *topology.Topology, pes []int32, left, right []int32) ([]int32, []int32) {
	bestDigit, bestDiff := -1, len(pes)+1
	for j := 0; j < topo.Dim; j++ {
		zeros := 0
		for _, pe := range pes {
			if topo.Labels[pe].Bit(j) == 0 {
				zeros++
			}
		}
		ones := len(pes) - zeros
		if zeros == 0 || ones == 0 {
			continue
		}
		diff := zeros - ones
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff, bestDigit = diff, j
		}
	}
	if bestDigit < 0 {
		// All labels identical on the remaining digits cannot happen for
		// distinct labels; split arbitrarily as a safety net.
		mid := len(pes) / 2
		left = append(left, pes[:mid]...)
		right = append(right, pes[mid:]...)
		return left, right
	}
	for _, pe := range pes {
		if topo.Labels[pe].Bit(bestDigit) == 0 {
			left = append(left, pe)
		} else {
			right = append(right, pe)
		}
	}
	return left, right
}

// bisectProportional produces a 2-way split of sub with side 0 holding
// fracL of the weight. It reuses the partitioner's machinery for k=2
// with asymmetric targets; with a scratch-backed config the returned
// side aliases the partitioner scratch and is consumed before the next
// bisection.
func bisectProportional(sub *graph.Graph, pcfg partition.Config, rng *rand.Rand, fracL float64) []int32 {
	if sub.N() == 1 {
		return []int32{0}
	}
	res, err := partition.PartitionProportional(sub, pcfg, fracL, rng.Int63())
	if err != nil {
		// Degenerate (e.g. sub too small): put everything on side 0.
		side := make([]int32, sub.N())
		return side
	}
	return res
}
