package core

import (
	"math/rand"
	"sync"

	"repro/internal/bitvec"
)

// runHierarchiesWide executes the exact runHierarchies trajectory with
// speculative parallelism: result-transparent wide execution.
//
// The sequential loop chains state — each trial starts from the current
// accepted labeling and the current Coco+ threshold — so naive fan-out
// would change the search. The key observation is that most trials do
// NOT change that state: a rejected trial mutates nothing, and an
// accepted zero-swap trial reproduces the base labeling exactly and
// leaves the threshold where it was (its Coco+ ties the threshold, and
// ties are accepted). Only a trial that is accepted with swaps applied
// ("a mutation") advances the base labeling.
//
// So the loop runs in rounds: from the current state, trials h, h+1, …
// are evaluated concurrently (trial h on the caller, the rest on
// goroutines granted by opt.Spawn, each with its own pooled Scratch).
// After the round joins, the trials are scanned in h-order applying the
// sequential acceptance rule verbatim; the scan stops consuming at the
// first mutation, whose successors were speculated from a stale base
// and are discarded (recomputed next round from the updated state).
// Every consumed trial therefore sees exactly the inputs the sequential
// loop would have given it, making labels and counters byte-identical —
// speculation only ever costs wasted helper work, never a different
// answer. Wall-clock approaches NumHierarchies/(mutations+1) trial
// times; with a typical handful of mutations concentrated in the early
// trials, that is near-linear in the granted width.
//
// The hierarchy permutations are drawn on demand, in h-order: the
// shared rng is consumed nowhere else in the loop, one draw per trial,
// so this consumes the identical stream. A trial speculated past a
// mutation keeps its drawn permutation for the next round. Memory is
// bounded by the widest granted round, not by NumHierarchies: each
// slot (the caller's and one per granted helper) owns its scratch, its
// permutation buffer, its trial result and its task closure, and is
// reused by every later round, so a round allocates nothing once its
// slots exist.
func runHierarchiesWide(lab *Labeling, opt Options, rng *rand.Rand, res *Result, sc *Scratch) {
	ga := lab.Ga
	dimGa := lab.DimGa
	plusMask, minusMask := objectiveMasks(lab, opt)
	curCoco, curDiv := cocoAndDivOfLabels(ga, lab.Labels, plusMask, minusMask)
	bestCocoPlus := curCoco - curDiv
	bestCoco := curCoco
	bestCocoLabels := append([]bitvec.Label(nil), lab.Labels...)

	// slots[i] evaluates trial h+i of the current round; slot 0 is the
	// caller's. A helper slot's run task is built once and reads the
	// round's inputs from the slot, so spawning it allocates nothing.
	var wg sync.WaitGroup
	slots := []*wideSlot{{sc: sc}}
	defer func() {
		for _, w := range slots[1:] {
			putScratch(w.sc)
		}
	}()
	// ready counts the leading slots whose pi already holds the
	// permutation of trial h+i.
	ready := 0
	draw := func(i, h int) {
		if i >= ready {
			slots[i].pi = pickPermutation(slots[i].pi, h+i, dimGa, opt, rng)
			ready = i + 1
		}
	}

	h := 0
	for h < opt.NumHierarchies {
		// Launch as many speculative helpers as Spawn grants, then run
		// trial h on the caller. Greedy width is wall-clock optimal: a
		// round ends at the next mutation wherever it falls, and the
		// grant gate (the engine's pool occupancy) is what bounds wasted
		// helper work under load.
		draw(0, h)
		want := opt.NumHierarchies - h
		width := 1
		for width < want {
			if len(slots) <= width {
				w := &wideSlot{sc: getScratch()}
				w.run = func() {
					defer wg.Done()
					w.t = tryHierarchy(ga, lab.Labels, dimGa, w.pi, plusMask, minusMask,
						opt.SwapRounds, w.coco, w.best, w.sc)
				}
				slots = append(slots, w)
			}
			draw(width, h)
			w := slots[width]
			w.coco, w.best = curCoco, bestCocoPlus
			wg.Add(1)
			if !opt.Spawn(w.run) {
				wg.Done() // the task never ran; undo its Add
				break
			}
			width++
		}
		slots[0].t = tryHierarchy(ga, lab.Labels, dimGa, slots[0].pi, plusMask, minusMask,
			opt.SwapRounds, curCoco, bestCocoPlus, sc)
		wg.Wait()

		// Replay the sequential acceptance over the round in h-order.
		consumed := width
		for j := 0; j < width; j++ {
			t := &slots[j].t
			if t.cocoPlus > bestCocoPlus {
				continue // rejected: state untouched, speculation holds
			}
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
			if t.swaps > 0 {
				// A mutation: the base labeling changed, so the rest of
				// the round speculated from a stale base. Consume up to
				// here; the successors rerun next round.
				consumed = j + 1
				break
			}
		}
		// Shift the drawn but unconsumed permutations to the front; the
		// consumed buffers become spares.
		for i := consumed; i < ready; i++ {
			slots[i-consumed].pi, slots[i].pi = slots[i].pi, slots[i-consumed].pi
		}
		ready -= consumed
		h += consumed
	}
	copy(lab.Labels, bestCocoLabels)
}

// wideSlot is one trial position of a wide round: the scratch it runs
// on, its permutation, the round's base objectives, its result, and the
// task handed to Options.Spawn.
type wideSlot struct {
	sc         *Scratch
	pi         bitvec.Permutation
	coco, best int64
	t          trial
	run        func()
}
