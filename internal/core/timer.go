package core

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/topology"
)

// DefaultNumHierarchies is the paper's NH default (Section 7). Every
// layer that defaults the hierarchy count — core.Options,
// engine.JobSpec, the bench harness's ns/op arithmetic — shares this
// constant so they cannot drift apart.
const DefaultNumHierarchies = 50

// Options configures a TIMER run (procedure TIMER of Algorithm 1).
type Options struct {
	// NumHierarchies is NH, the number of random label-permutation
	// hierarchies to try. The paper uses 50 and notes that 10 already
	// captures most of the improvement. Default 50.
	NumHierarchies int
	// Seed drives the extension shuffle and the permutations.
	Seed int64

	// DisableDiv ablates the diversity term of Section 5: the objective
	// reverts from Coco+ = Coco − Div to plain Coco, so swaps on
	// extension digits never fire. Exposed for the ablation benchmarks.
	DisableDiv bool
	// FixedPermutations ablates the multi-hierarchy diversity of
	// Section 6: instead of NH random permutations, TIMER alternates
	// between the identity and the digit-reversing permutation (the two
	// opposite hierarchies of Figure 2).
	FixedPermutations bool
	// Workers > 1 evaluates hierarchies in concurrent batches — the
	// "effective first step toward a parallel version" the paper
	// sketches in Section 6.3. Each batch builds Workers independent
	// hierarchies from the current labeling and accepts the best
	// candidate. Results remain deterministic for a fixed seed; the
	// search trajectory differs from the sequential one because
	// hierarchies within a batch do not see each other's improvements.
	Workers int
	// SwapRounds repeats the sibling-swap pass on each hierarchy level
	// until it converges or the bound is hit (default 1, the paper's
	// single pass). The paper's conclusion suggests replacing its
	// "standard and simple" local search with something stronger; extra
	// rounds are the cheapest such strengthening.
	SwapRounds int

	// Spawn, when non-nil, enables wide execution of the sequential
	// hierarchy loop: upcoming trials are evaluated speculatively on
	// other goroutines while the loop's exact acceptance order is
	// replayed afterwards, so the result — labels and every counter —
	// is byte-identical to the Spawn == nil run (unlike Workers > 1,
	// which changes the search trajectory). Spawn must either run the
	// function (on any goroutine, returning true immediately) or
	// decline by returning false; it must be safe for concurrent calls.
	// The engine's wide mode supplies a pool-occupancy-gated Spawn.
	// Ignored when Workers > 1. See runHierarchiesWide.
	Spawn func(func()) bool

	// Scratch, when non-nil, supplies the reusable hot-path buffers of
	// this run; engine workers keep one per worker goroutine so
	// back-to-back jobs share warm arenas. When nil, Enhance borrows a
	// Scratch from a package pool. The same Scratch must never be used
	// by two Enhance calls concurrently.
	Scratch *Scratch
}

func (o Options) withDefaults() Options {
	if o.NumHierarchies <= 0 {
		o.NumHierarchies = DefaultNumHierarchies
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.SwapRounds <= 0 {
		o.SwapRounds = 1
	}
	return o
}

// Result reports a TIMER run.
type Result struct {
	// Labeling is the final labeling (Labels encode the enhanced µ).
	Labeling *Labeling
	// Assign is the enhanced mapping extracted from the labels.
	Assign []int32
	// CocoBefore/After are the paper's main objective before and after.
	CocoBefore, CocoAfter int64
	// CocoPlusBefore/After are the extended objective (Eq. (14)).
	CocoPlusBefore, CocoPlusAfter int64
	// HierarchiesKept counts hierarchies whose labeling was accepted.
	HierarchiesKept int
	// SwapsApplied counts label swaps across all kept hierarchies.
	SwapsApplied int
	// SwapGain is the summed exact Coco+ delta of those swaps, as
	// maintained incrementally by the swap passes (always ≤ 0). It
	// measures how much of the enhancement the local search itself
	// contributed, versus the hierarchy reassembly.
	SwapGain int64
	// Repairs counts assemble() bijectivity repairs (diagnostic; the
	// counting trie makes assemble bijective, so this stays 0 unless the
	// safety net is exercised by a future change).
	Repairs int
}

// Enhance runs TIMER on an initial mapping assign of ga onto topo and
// returns the enhanced mapping. The balance of the input mapping is
// preserved exactly: TIMER only permutes labels within the fixed label
// set, so block sizes never change (paper Section 4).
func Enhance(ga *graph.Graph, topo *topology.Topology, assign []int32, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	lab, err := NewLabeling(ga, topo, assign, rng)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Labeling:       lab,
		CocoBefore:     lab.Coco(),
		CocoPlusBefore: lab.CocoPlus(),
	}
	if lab.DimGa >= 2 && ga.N() > 1 {
		sc := opt.Scratch
		if sc == nil {
			sc = getScratch()
			defer putScratch(sc)
		}
		switch {
		case opt.Workers > 1:
			runHierarchiesParallel(lab, opt, rng, res, sc)
		case opt.Spawn != nil:
			runHierarchiesWide(lab, opt, rng, res, sc)
		default:
			runHierarchies(lab, opt, rng, res, sc)
		}
	}
	res.CocoAfter = lab.Coco()
	res.CocoPlusAfter = lab.CocoPlus()
	res.Assign, err = lab.Assignment()
	if err != nil {
		return nil, fmt.Errorf("core: extracting enhanced mapping: %w", err)
	}
	return res, nil
}

// objectiveMasks returns the +1 and −1 digit masks of the acceptance
// objective: Coco+ normally, plain Coco under the DisableDiv ablation.
func objectiveMasks(lab *Labeling, opt Options) (plus, minus uint64) {
	plus = lab.LpMask()
	if !opt.DisableDiv {
		minus = lab.ExtMask()
	}
	return plus, minus
}

// pickPermutation writes the h-th hierarchy permutation into dst's
// storage (grown to dimGa digits if needed) and returns it. Random
// permutations take one draw from rng each, so callers draw them in
// h-order.
func pickPermutation(dst bitvec.Permutation, h, dimGa int, opt Options, rng *rand.Rand) bitvec.Permutation {
	p := graph.Resize(dst, dimGa)
	if !opt.FixedPermutations {
		return bitvec.RandomInto(rng, p)
	}
	for i := range p {
		if h%2 == 0 {
			p[i] = uint8(i) // the identity
		} else {
			p[i] = uint8(dimGa - 1 - i) // the digit-reversing permutation
		}
	}
	return p
}

// trial is the outcome of building and assembling one hierarchy.
type trial struct {
	// labels aliases the Scratch's candidate buffer and is only valid
	// until that Scratch starts its next hierarchy; acceptance copies it
	// out immediately.
	labels []bitvec.Label
	// coco and cocoPlus are scored in one shared edge walk; the plain
	// Coco rides along so acceptance needs no second O(m) pass.
	coco, cocoPlus int64
	swaps          int
	// swapGain is the summed incremental Coco+ delta of the applied
	// sibling swaps across all hierarchy levels (always ≤ 0).
	swapGain int64
	repairs  int
}

// tryHierarchy executes one iteration of Algorithm 1's outer loop (lines
// 5-16) from the given base labels: permute, build the swap/contract
// hierarchy, assemble, un-permute. It does not decide acceptance.
// baseCoco and baseCocoPlus are the objectives of base: a hierarchy on
// which no swap fired reproduces base exactly (assemble then walks every
// vertex's own unchanged label through the trie), so its assembly,
// un-permutation and O(m) rescoring are skipped wholesale.
func tryHierarchy(ga *graph.Graph, base []bitvec.Label, dimGa int,
	pi bitvec.Permutation, plusMask, minusMask uint64, swapRounds int,
	baseCoco, baseCocoPlus int64, sc *Scratch) trial {
	n := len(base)
	sc.fwd.CompileInto(pi)
	sc.perm = graph.Resize(sc.perm, n)
	for v, l := range base {
		sc.perm[v] = sc.fwd.Apply(l)
	}
	// A zero-value Scratch (not from NewScratch) grows these here.
	if cap(sc.signs) < dimGa {
		sc.signs = make([]int8, 0, bitvec.MaxDim)
	}
	if cap(sc.path) < dimGa {
		sc.path = make([]int32, 0, bitvec.MaxDim)
	}
	sc.signs = sc.signs[:dimGa]
	for j := 0; j < dimGa; j++ {
		bit := uint64(1) << uint(pi[j])
		switch {
		case bit&plusMask != 0:
			sc.signs[j] = 1
		case bit&minusMask != 0:
			sc.signs[j] = -1
		default:
			sc.signs[j] = 0 // ablated digit: swaps there can never gain
		}
	}

	sc.buildHierarchy(ga, dimGa, sc.signs, swapRounds)
	swaps := 0
	var gain int64
	for k := 0; k < sc.nlev; k++ {
		swaps += sc.levels[k].swaps
		gain += sc.levels[k].gain
	}

	sc.cand = graph.Resize(sc.cand, n)
	if swaps == 0 {
		copy(sc.cand, base)
		return trial{labels: sc.cand, coco: baseCoco, cocoPlus: baseCocoPlus}
	}

	sc.trie.build(sc.perm, dimGa)
	sc.assembled = graph.Resize(sc.assembled, n)
	assemble(sc.levels[:sc.nlev], dimGa, &sc.trie, sc.assembled, sc.path)

	sc.inv.CompileInverseInto(pi)
	for v, l := range sc.assembled {
		sc.cand[v] = sc.inv.Apply(l)
	}
	repairs := repairDuplicates(ga, sc.cand, base, plusMask, minusMask, &sc.repairIx)
	coco, div := cocoAndDivOfLabels(ga, sc.cand, plusMask, minusMask)
	return trial{
		labels:   sc.cand,
		coco:     coco,
		cocoPlus: coco - div,
		swaps:    swaps,
		swapGain: gain,
		repairs:  repairs,
	}
}

// runHierarchies is the main loop of Algorithm 1 (lines 3-20).
//
// One deliberate strengthening over the paper's pseudocode: hierarchies
// are accepted on the Coco+ criterion exactly as in lines 17-19, but the
// labeling finally returned is the accepted state with the lowest plain
// Coco (the paper's actual quality measure, Eq. (3)). Coco+ = Coco − Div
// can improve while Coco degrades slightly; since TIMER is presented as
// an enhancer whose output is measured in Coco, tracking the best
// accepted Coco state guarantees the enhancement property without
// changing the search trajectory.
func runHierarchies(lab *Labeling, opt Options, rng *rand.Rand, res *Result, sc *Scratch) {
	ga := lab.Ga
	dimGa := lab.DimGa
	plusMask, minusMask := objectiveMasks(lab, opt)
	curCoco, curDiv := cocoAndDivOfLabels(ga, lab.Labels, plusMask, minusMask)
	bestCocoPlus := curCoco - curDiv
	bestCoco := curCoco
	bestCocoLabels := append([]bitvec.Label(nil), lab.Labels...)

	var pi bitvec.Permutation
	for h := 0; h < opt.NumHierarchies; h++ {
		pi = pickPermutation(pi, h, dimGa, opt, rng)
		t := tryHierarchy(ga, lab.Labels, dimGa, pi, plusMask, minusMask, opt.SwapRounds,
			curCoco, bestCocoPlus, sc)
		// Lines 17-19: keep only if Coco+ did not get worse.
		if t.cocoPlus <= bestCocoPlus {
			copy(lab.Labels, t.labels)
			bestCocoPlus = t.cocoPlus
			curCoco = t.coco
			res.HierarchiesKept++
			res.SwapsApplied += t.swaps
			res.SwapGain += t.swapGain
			res.Repairs += t.repairs
			if t.coco < bestCoco {
				bestCoco = t.coco
				copy(bestCocoLabels, t.labels)
			}
		}
	}
	// Return the accepted state with the best plain Coco (see doc above).
	copy(lab.Labels, bestCocoLabels)
}

// runHierarchiesParallel evaluates hierarchies in concurrent batches of
// opt.Workers: all hierarchies of a batch start from the same labeling;
// the best improving candidate (ties broken by batch index, keeping the
// result deterministic) is accepted before the next batch starts.
func runHierarchiesParallel(lab *Labeling, opt Options, rng *rand.Rand, res *Result, sc *Scratch) {
	ga := lab.Ga
	dimGa := lab.DimGa
	plusMask, minusMask := objectiveMasks(lab, opt)
	curCoco, curDiv := cocoAndDivOfLabels(ga, lab.Labels, plusMask, minusMask)
	bestCocoPlus := curCoco - curDiv
	bestCoco := curCoco
	bestCocoLabels := append([]bitvec.Label(nil), lab.Labels...)

	// One scratch per concurrent slot, reused across batches; slot 0 is
	// the caller's.
	scs := make([]*Scratch, opt.Workers)
	scs[0] = sc
	for i := 1; i < len(scs); i++ {
		scs[i] = getScratch()
		defer putScratch(scs[i])
	}

	remaining := opt.NumHierarchies
	h := 0
	for remaining > 0 {
		batch := opt.Workers
		if batch > remaining {
			batch = remaining
		}
		// Draw the batch's permutations up front from the shared rng so
		// the schedule is deterministic regardless of goroutine timing.
		pis := make([]bitvec.Permutation, batch)
		for i := range pis {
			pis[i] = pickPermutation(nil, h+i, dimGa, opt, rng)
		}
		trials := make([]trial, batch)
		var wg sync.WaitGroup
		for i := 0; i < batch; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				trials[i] = tryHierarchy(ga, lab.Labels, dimGa, pis[i], plusMask, minusMask,
					opt.SwapRounds, curCoco, bestCocoPlus, scs[i])
			}(i)
		}
		wg.Wait()
		bestI := -1
		for i := range trials {
			if trials[i].cocoPlus <= bestCocoPlus && (bestI < 0 || trials[i].cocoPlus < trials[bestI].cocoPlus) {
				bestI = i
			}
		}
		if bestI >= 0 {
			t := &trials[bestI]
			copy(lab.Labels, t.labels)
			bestCocoPlus = t.cocoPlus
			curCoco = t.coco
			res.HierarchiesKept++
			res.SwapsApplied += t.swaps
			res.SwapGain += t.swapGain
			res.Repairs += t.repairs
			if t.coco < bestCoco {
				bestCoco = t.coco
				copy(bestCocoLabels, t.labels)
			}
		}
		remaining -= batch
		h += batch
	}
	copy(lab.Labels, bestCocoLabels)
}

// EnhanceMapping is a convenience wrapper returning only the enhanced
// assignment.
func EnhanceMapping(ga *graph.Graph, topo *topology.Topology, assign []int32, nh int, seed int64) ([]int32, error) {
	res, err := Enhance(ga, topo, assign, Options{NumHierarchies: nh, Seed: seed})
	if err != nil {
		return nil, err
	}
	return res.Assign, nil
}
