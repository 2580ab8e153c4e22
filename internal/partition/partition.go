// Package partition implements a multilevel k-way graph partitioner in
// the style of KaHIP/Metis, used as the paper's partitioning substrate
// (experimental cases c2–c4 obtain their initial partitions from KaHIP;
// this package plays that role, and its running time is the denominator
// of the paper's Table 2 time quotients).
//
// The pipeline is the classical multilevel scheme the paper cites
// ([15, 27]): coarsening by heavy-edge matching, initial partitioning by
// greedy graph growing, and Fiduccia–Mattheyses-style local refinement
// during uncoarsening. k-way partitions are produced by recursive
// bisection with proportional weight targets, followed by a k-way
// boundary refinement sweep.
package partition

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Config controls the partitioner.
type Config struct {
	// K is the number of blocks (≥ 1).
	K int
	// Epsilon is the allowed imbalance: every block's weight is at most
	// (1+Epsilon)·⌈W/K⌉ (paper Eq. (1)). The paper uses 0.03; values
	// above MaxEpsilon are refused.
	Epsilon float64
	// Seed drives all randomized components.
	Seed int64
	// CoarsestSize stops coarsening once the graph has at most this many
	// vertices (0 = default).
	CoarsestSize int
	// InitialTries is the number of greedy-growing attempts per
	// bisection (0 = default).
	InitialTries int
	// FMPasses bounds the FM passes per level (0 = default).
	FMPasses int
	// Coarsening selects the contraction scheme (default: matching;
	// ClusterCoarsening suits complex networks, cf. package docs).
	Coarsening CoarseningScheme
	// VCycles adds iterated-multilevel rounds per bisection: the graph
	// is re-coarsened without crossing the current cut and the projected
	// bisection is refined again at every level (KaHIP's V-cycle idea).
	// Each cycle can only keep or lower the cut; 0 disables.
	VCycles int
	// Scratch, when non-nil, supplies the reusable buffers of the
	// multilevel hot path (see Scratch). Results are byte-identical with
	// or without it; nil borrows a scratch from a package pool. A
	// Scratch must not be shared between concurrent calls.
	Scratch *Scratch
	// Spawn, when non-nil, lets Partition offload the right half of a
	// recursive bisection onto another goroutine: Spawn must either run
	// the function (on any goroutine, returning true immediately) or
	// decline by returning false, in which case the caller runs it
	// inline. Spawned halves spawn their own sub-halves in turn, so the
	// hook must be safe for concurrent calls. Every recursion node
	// derives its own rng seed from (Seed, block interval) — see
	// subSeed — so the partition is byte-identical whether halves run
	// sequentially, concurrently, or in any mix. The engine's wide mode
	// supplies a pool-occupancy-gated Spawn; nil keeps the
	// single-goroutine behavior.
	Spawn func(func()) bool
}

// MaxEpsilon caps Config.Epsilon: at 1 a block may weigh twice the
// average, 33× the paper's 0.03. Far beyond it the balance bound stops
// constraining anything, a bisection may leave one side empty, and the
// recursion then crashes trying to grow a block in an empty subgraph.
const MaxEpsilon = 1

// CheckEpsilon refuses an imbalance over MaxEpsilon, or NaN. Partition,
// PartitionProportional, mapping.DRB and engine job admission apply it.
func CheckEpsilon(eps float64) error {
	if eps > MaxEpsilon || math.IsNaN(eps) {
		return fmt.Errorf("partition: epsilon %g exceeds the cap of %d", eps, MaxEpsilon)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Epsilon <= 0 {
		c.Epsilon = 0.03
	}
	if c.CoarsestSize <= 0 {
		c.CoarsestSize = 160
	}
	if c.InitialTries <= 0 {
		c.InitialTries = 6
	}
	if c.FMPasses <= 0 {
		c.FMPasses = 4
	}
	return c
}

// Result is a k-way partition with its quality metrics.
type Result struct {
	Part     []int32 // vertex -> block in [0, K)
	K        int
	Cut      int64   // total weight of edges between different blocks
	MaxBlock int64   // heaviest block weight
	Balance  float64 // MaxBlock / ⌈W/K⌉
}

// Partition computes an ε-balanced K-way partition of g.
func Partition(g *graph.Graph, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.K < 1 {
		return nil, fmt.Errorf("partition: K = %d, want ≥ 1", cfg.K)
	}
	if err := CheckEpsilon(cfg.Epsilon); err != nil {
		return nil, err
	}
	if g.N() == 0 {
		return &Result{Part: nil, K: cfg.K}, nil
	}
	if int64(cfg.K) > g.TotalVertexWeight() {
		return nil, fmt.Errorf("partition: K = %d exceeds total vertex weight %d", cfg.K, g.TotalVertexWeight())
	}
	sc := cfg.Scratch
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	part := make([]int32, g.N())
	// Per-bisection imbalance: compounding over ⌈log2 K⌉ levels must stay
	// within the global ε; additionally each level needs some slack to
	// move at all.
	levels := int(math.Ceil(math.Log2(float64(cfg.K))))
	if levels < 1 {
		levels = 1
	}
	epsBis := math.Pow(1+cfg.Epsilon, 1/float64(levels)) - 1
	if epsBis < 0.004 {
		epsBis = 0.004
	}
	sc.recursiveBisect(g, cfg, part, cfg.K, epsBis, 0, 0)

	// The k-way post-pass draws from its own derived stream: (K, K)
	// cannot collide with any recursion node's interval (those all have
	// gbase+k ≤ K with k ≥ 1, so gbase ≤ K−1).
	sc.kwayRefine(g, part, cfg, sc.seedRNG(subSeed(cfg.Seed, cfg.K, cfg.K)))
	sc.enforceBalance(g, part, cfg)

	res := &Result{Part: part, K: cfg.K}
	sc.weights = graph.Resize(sc.weights, cfg.K)
	evaluateInto(res, g, part, sc.weights)
	return res, nil
}

// subSeed derives the rng seed of one independent subproblem from the
// configured seed and the subproblem's global block interval
// [gbase, gbase+k). Every recursion node of recursiveBisect covers a
// distinct interval (disjoint intervals differ in gbase, nested
// same-start intervals differ in k), so each node draws from its own
// stream regardless of execution order — which is what makes the
// Spawn-parallel recursion byte-identical to the sequential one. The
// mixer is splitmix64's finalizer.
func subSeed(seed int64, gbase, k int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(gbase+1) + 0xbf58476d1ce4e5b9*uint64(k)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// recursiveBisect splits g's vertices into blocks [0, k) writing into
// part (which is indexed by g's vertex ids — callers pass induced
// subgraphs along with an id translation); the caller projects the
// local block ids onto its own interval. depth indexes the scratch's
// per-recursion-level subgraph storage; gbase is the node's global
// first block, used only for seed derivation (see subSeed).
func (sc *Scratch) recursiveBisect(g *graph.Graph, cfg Config, part []int32, k int, epsBis float64, depth, gbase int) {
	if k == 1 {
		for v := 0; v < g.N(); v++ {
			part[v] = 0
		}
		return
	}
	kL := k / 2
	kR := k - kL
	fracL := float64(kL) / float64(k)
	// This node's private stream: consumed entirely by the bisection
	// below, before any recursion reseeds the scratch's shared rng.
	rng := sc.seedRNG(subSeed(cfg.Seed, gbase, k))
	side := sc.multilevelBisect(g, cfg, rng, fracL, epsBis)

	if kL == 1 && kR == 1 {
		// Both halves are leaves: the side assignment is the partition
		// (left = 0, right = 1); no subgraphs needed.
		copy(part, side[:g.N()])
		return
	}

	// All depth-state writes happen before recursing: deeper calls may
	// grow sc.depths and invalidate the pointer.
	ds := sc.depth(depth)
	left, right := ds.left[:0], ds.right[:0]
	for v := 0; v < g.N(); v++ {
		if side[v] == 0 {
			left = append(left, int32(v))
		} else {
			right = append(right, int32(v))
		}
	}
	gL, gR := ds.gL, ds.gR
	sc.remap = graph.InducedSubgraphInto(gL, g, left, sc.remap)
	sc.remap = graph.InducedSubgraphInto(gR, g, right, sc.remap)
	partL := graph.Resize(ds.partL, gL.N())
	partR := graph.Resize(ds.partR, gR.N())
	ds.left, ds.right, ds.partL, ds.partR = left, right, partL, partR

	// Offload the right half when the caller provided Spawn and the
	// half is worth a goroutine (a k=1 leaf is a trivial fill). The
	// spawned task owns a pooled Scratch — never the caller's — and the
	// parent only reads partR after the join, so gR/partR (stable in
	// this depthState while deeper levels grow sc.depths) are safe to
	// share. Channel and closure allocations happen on this path only;
	// the sequential path stays allocation-free.
	if cfg.Spawn != nil && kR > 1 {
		done := make(chan struct{})
		if cfg.Spawn(func() {
			defer close(done)
			rsc := getScratch()
			rsc.recursiveBisect(gR, cfg, partR, kR, epsBis, 0, gbase+kL)
			putScratch(rsc)
		}) {
			sc.recursiveBisect(gL, cfg, partL, kL, epsBis, depth+1, gbase)
			<-done
			projectHalves(part, left, right, partL, partR, kL)
			return
		}
	}
	sc.recursiveBisect(gL, cfg, partL, kL, epsBis, depth+1, gbase)
	sc.recursiveBisect(gR, cfg, partR, kR, epsBis, depth+1, gbase+kL)
	projectHalves(part, left, right, partL, partR, kL)
}

// projectHalves merges the two halves' local block ids into the parent's
// local id space: left blocks keep their ids, right blocks shift by kL.
func projectHalves(part []int32, left, right, partL, partR []int32, kL int) {
	for i, v := range left {
		part[v] = partL[i]
	}
	for i, v := range right {
		part[v] = int32(kL) + partR[i]
	}
}

// PartitionProportional computes a 2-way split of g where side 0
// receives approximately frac of the total vertex weight, within the
// configured epsilon on both sides. It exposes the multilevel bisection
// used internally by recursive bisection; the DRB mapper builds on it.
//
// When cfg.Scratch is non-nil the returned slice aliases scratch
// storage and is only valid until the scratch's next use; callers on
// that path consume it immediately (as DRB does). With a nil Scratch
// the result is freshly allocated.
func PartitionProportional(g *graph.Graph, cfg Config, frac float64, seed int64) ([]int32, error) {
	cfg = cfg.withDefaults()
	if g.N() == 0 {
		return nil, nil
	}
	if frac <= 0 || frac >= 1 {
		return nil, fmt.Errorf("partition: fraction %g out of (0,1)", frac)
	}
	if err := CheckEpsilon(cfg.Epsilon); err != nil {
		return nil, err
	}
	sc := cfg.Scratch
	if sc == nil {
		sc = getScratch()
		rng := sc.seedRNG(seed)
		side := append([]int32(nil), sc.multilevelBisect(g, cfg, rng, frac, cfg.Epsilon)...)
		putScratch(sc)
		return side, nil
	}
	rng := sc.seedRNG(seed)
	return sc.multilevelBisect(g, cfg, rng, frac, cfg.Epsilon), nil
}

// Evaluate computes cut and balance of a partition.
func Evaluate(g *graph.Graph, part []int32, k int) *Result {
	res := &Result{Part: part, K: k}
	evaluateInto(res, g, part, make([]int64, k))
	return res
}

// evaluateInto fills res.Cut/MaxBlock/Balance using weights (len K) as
// scratch, so the warm Partition path evaluates without allocating.
func evaluateInto(res *Result, g *graph.Graph, part []int32, weights []int64) {
	clear(weights)
	res.Cut = 0
	for v := 0; v < g.N(); v++ {
		weights[part[v]] += g.VertexWeight(v)
		nbr, ew := g.Neighbors(v)
		for i, u := range nbr {
			if int(u) > v && part[u] != part[v] {
				res.Cut += ew[i]
			}
		}
	}
	res.MaxBlock = 0
	for _, w := range weights {
		if w > res.MaxBlock {
			res.MaxBlock = w
		}
	}
	ideal := idealBlockWeight(g.TotalVertexWeight(), res.K)
	res.Balance = float64(res.MaxBlock) / float64(ideal)
}

// idealBlockWeight is ⌈W/K⌉ as in paper Eq. (1).
func idealBlockWeight(total int64, k int) int64 {
	return (total + int64(k) - 1) / int64(k)
}

// Cut returns the total weight of edges crossing between blocks.
func Cut(g *graph.Graph, part []int32) int64 {
	var cut int64
	for v := 0; v < g.N(); v++ {
		nbr, ew := g.Neighbors(v)
		for i, u := range nbr {
			if int(u) > v && part[u] != part[v] {
				cut += ew[i]
			}
		}
	}
	return cut
}

// BlockWeights returns the weight of each block.
func BlockWeights(g *graph.Graph, part []int32, k int) []int64 {
	w := make([]int64, k)
	for v := 0; v < g.N(); v++ {
		w[part[v]] += g.VertexWeight(v)
	}
	return w
}

// IsBalanced reports whether every block weight is at most
// (1+eps)·⌈W/K⌉.
func IsBalanced(g *graph.Graph, part []int32, k int, eps float64) bool {
	limit := int64(math.Floor((1 + eps) * float64(idealBlockWeight(g.TotalVertexWeight(), k))))
	for _, w := range BlockWeights(g, part, k) {
		if w > limit {
			return false
		}
	}
	return true
}
