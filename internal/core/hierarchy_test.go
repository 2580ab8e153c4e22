package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/graph"
)

// eagerLevel is one level of the reference hierarchy: its eagerly
// contracted graph, its labels before and after the swap pass, and its
// parent map and swap counters.
type eagerLevel struct {
	g              *graph.Graph
	before, labels []bitvec.Label
	parent         []int32
	swaps          int
	gain           int64
}

// eagerHierarchy is the reference implementation of buildHierarchy:
// Algorithm 1's inner loop taken literally. Each level finds siblings
// through a label map, swaps on its own coarse graph, and is then
// contracted into the next level's graph with graph.Quotient.
func eagerHierarchy(ga *graph.Graph, perm []bitvec.Label, dimGa int, signs []int8, swapRounds int) []eagerLevel {
	levels := []eagerLevel{{g: ga, labels: append([]bitvec.Label(nil), perm...)}}
	for k := 1; k <= dimGa-2; k++ {
		cur := &levels[len(levels)-1]
		n := cur.g.N()
		if n <= 1 {
			break
		}
		cur.before = append([]bitvec.Label(nil), cur.labels...)
		byLabel := make(map[bitvec.Label]int, n)
		for v, l := range cur.labels {
			byLabel[l] = v
		}
		for round := 0; round < swapRounds; round++ {
			swaps := 0
			for u := 0; u < n; u++ {
				lu := cur.labels[u]
				if lu&1 != 0 {
					continue
				}
				v, ok := byLabel[lu^1]
				if !ok {
					continue
				}
				if delta := eagerSwapDelta(cur.g, cur.labels, u, v, int(signs[k-1])); delta < 0 {
					cur.labels[u], cur.labels[v] = cur.labels[v], cur.labels[u]
					byLabel[cur.labels[u]], byLabel[cur.labels[v]] = u, v
					swaps++
					cur.gain += delta
				}
			}
			cur.swaps += swaps
			if swaps == 0 {
				break
			}
		}
		ids := make(map[bitvec.Label]int32, n)
		cur.parent = make([]int32, n)
		var next []bitvec.Label
		for v, l := range cur.labels {
			id, ok := ids[l>>1]
			if !ok {
				id = int32(len(next))
				ids[l>>1] = id
				next = append(next, l>>1)
			}
			cur.parent[v] = id
		}
		levels = append(levels, eagerLevel{g: cur.g.Quotient(cur.parent, len(next)), labels: next})
	}
	return levels
}

// eagerSwapDelta is the sibling-swap gain summed over a level's own
// coarse graph.
func eagerSwapDelta(g *graph.Graph, labels []bitvec.Label, u, v, sign int) int64 {
	var acc int64
	nbr, ew := g.Neighbors(u)
	for i, w := range nbr {
		if int(w) != v {
			acc += ew[i] * (1 - 2*int64(labels[w]&1))
		}
	}
	nbr, ew = g.Neighbors(v)
	for i, w := range nbr {
		if int(w) != u {
			acc += ew[i] * (2*int64(labels[w]&1) - 1)
		}
	}
	return int64(sign) * acc
}

// levelCocoPlus recomputes Coco+ from scratch on level i of a
// hierarchy: digit d of that level is permuted digit i+d, with sign
// signs[i+d].
func levelCocoPlus(g *graph.Graph, labels []bitvec.Label, signs []int8, i int) int64 {
	var plus, minus uint64
	for d, s := range signs[i:] {
		switch s {
		case 1:
			plus |= 1 << uint(d)
		case -1:
			minus |= 1 << uint(d)
		}
	}
	return cocoPlusOfLabels(g, labels, plus, minus)
}

// TestLazyHierarchyMatchesEager is the oracle for the lazy contraction:
// on random graphs with dimGa from 8 to 35, with one and three swap
// rounds and with the diversity term on and off, every level's labels,
// parent map, swap count and gain equal those of the eager reference.
// Each level's gain also equals the Coco+ difference recomputed from
// scratch on the eagerly contracted graph (the incremental swap gain is
// exact).
func TestLazyHierarchyMatchesEager(t *testing.T) {
	cases := []struct {
		spec  string
		n, m  int
		dimGa int
	}{
		{"hypercube:5", 200, 500, 8},
		{"grid:4x4", 512, 1500, 11},
		{"torus:8x8", 600, 1800, 12},
		{"grid:8x8", 600, 1800, 18},
		{"grid:16x16", 2560, 7680, 34},
		{"grid:16x17", 2200, 6600, 35},
	}
	contracted := 0
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		topo := mustTopo(t, tc.spec)
		ga := randomGraph(tc.n, tc.m, int64(tc.n))
		lab, err := NewLabeling(ga, topo, balancedAssign(tc.n, topo.P(), 3), rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if lab.DimGa != tc.dimGa {
			t.Fatalf("%s n=%d: dimGa = %d, want %d", tc.spec, tc.n, lab.DimGa, tc.dimGa)
		}
		for _, rounds := range []int{1, 3} {
			for _, disableDiv := range []bool{false, true} {
				name := fmt.Sprintf("%s/n%d/rounds%d/div%v", tc.spec, tc.n, rounds, !disableDiv)
				pi := bitvec.Random(rng, lab.DimGa)
				t.Run(name, func(t *testing.T) {
					plus, minus := objectiveMasks(lab, Options{DisableDiv: disableDiv})
					coco, div := cocoAndDivOfLabels(ga, lab.Labels, plus, minus)
					sc := NewScratch()
					tryHierarchy(ga, lab.Labels, lab.DimGa, pi, plus, minus, rounds, coco, coco-div, sc)
					if sc.lg.mg != ga {
						contracted++
					}
					compareHierarchies(t, sc, eagerHierarchy(ga, sc.perm, lab.DimGa, sc.signs, rounds), lab.DimGa)
				})
			}
		}
	}
	if contracted == 0 {
		t.Error("no hierarchy materialized a coarse graph; the contraction path is untested")
	}
}

// compareHierarchies asserts that sc's lazily built hierarchy equals
// the eager reference level by level.
func compareHierarchies(t *testing.T, sc *Scratch, ref []eagerLevel, dimGa int) {
	t.Helper()
	if sc.nlev != len(ref) {
		t.Fatalf("lazy hierarchy has %d levels, eager %d", sc.nlev, len(ref))
	}
	for i := range ref {
		got, want := &sc.levels[i], &ref[i]
		if !reflect.DeepEqual(got.labels, want.labels) {
			t.Fatalf("level %d: labels differ from the eager reference", i)
		}
		if i == len(ref)-1 {
			break // the topmost level has no parent and no swap pass
		}
		if !reflect.DeepEqual(got.parent, want.parent) {
			t.Fatalf("level %d: parent map differs from the eager reference", i)
		}
		if got.swaps != want.swaps || got.gain != want.gain {
			t.Fatalf("level %d: %d swaps gaining %d, eager %d swaps gaining %d",
				i, got.swaps, got.gain, want.swaps, want.gain)
		}
		if got.gain > 0 {
			t.Fatalf("level %d: positive swap gain %d", i, got.gain)
		}
		delta := levelCocoPlus(want.g, want.labels, sc.signs, i) - levelCocoPlus(want.g, want.before, sc.signs, i)
		if got.gain != delta {
			t.Fatalf("level %d: incremental gain %d, recomputed Coco+ difference %d", i, got.gain, delta)
		}
	}
	if dimGa >= 3 && sc.nlev < 2 {
		t.Fatal("hierarchy has no coarse level")
	}
}
