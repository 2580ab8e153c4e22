package partition

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// grid builds an a×b mesh for tests.
func grid(a, b int) *graph.Graph {
	bld := graph.NewBuilder(a * b)
	id := func(x, y int) int { return y*a + x }
	for y := 0; y < b; y++ {
		for x := 0; x < a; x++ {
			if x+1 < a {
				bld.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < b {
				bld.AddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return bld.Build()
}

// randomGraph builds a connected random graph.
func randomGraph(n, extraEdges int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, rng.Intn(v), 1)
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, int64(1+rng.Intn(4)))
		}
	}
	return b.Build()
}

func TestPartitionTrivial(t *testing.T) {
	g := graph.Path(10)
	res, err := Partition(g, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != 0 {
		t.Errorf("K=1 cut = %d, want 0", res.Cut)
	}
	for _, p := range res.Part {
		if p != 0 {
			t.Fatal("K=1 must put everything in block 0")
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	g := graph.Path(4)
	if _, err := Partition(g, Config{K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := Partition(g, Config{K: 10}); err == nil {
		t.Error("K > total weight should fail")
	}
	for _, eps := range []float64{MaxEpsilon + 0.5, math.NaN()} {
		if _, err := Partition(g, Config{K: 2, Epsilon: eps}); err == nil {
			t.Errorf("epsilon %g should fail", eps)
		}
		if _, err := PartitionProportional(g, Config{Epsilon: eps}, 0.5, 1); err == nil {
			t.Errorf("PartitionProportional with epsilon %g should fail", eps)
		}
	}
	if _, err := Partition(g, Config{K: 2, Epsilon: MaxEpsilon}); err != nil {
		t.Errorf("epsilon at the cap: %v", err)
	}
}

func TestPartitionBalanced(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"grid8x8 k=4", grid(8, 8), 4},
		{"grid16x16 k=8", grid(16, 16), 8},
		{"rand500 k=7", randomGraph(500, 1500, 2), 7},
		{"rand1000 k=16", randomGraph(1000, 4000, 3), 16},
		{"path100 k=3", graph.Path(100), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Partition(tc.g, Config{K: tc.k, Epsilon: 0.03, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if !IsBalanced(tc.g, res.Part, tc.k, 0.03) {
				t.Errorf("partition not 3%%-balanced: block weights %v (ideal %d)",
					BlockWeights(tc.g, res.Part, tc.k),
					idealBlockWeight(tc.g.TotalVertexWeight(), tc.k))
			}
			for _, p := range res.Part {
				if p < 0 || int(p) >= tc.k {
					t.Fatalf("block id %d out of range", p)
				}
			}
			// Every block must be non-empty for K ≤ n.
			w := BlockWeights(tc.g, res.Part, tc.k)
			for b, bw := range w {
				if bw == 0 {
					t.Errorf("block %d empty", b)
				}
			}
		})
	}
}

func TestPartitionBeatsRandom(t *testing.T) {
	g := randomGraph(800, 3000, 5)
	k := 8
	res, err := Partition(g, Config{K: k, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Random balanced partition for comparison.
	rng := rand.New(rand.NewSource(1))
	randPart := make([]int32, g.N())
	for v := range randPart {
		randPart[v] = int32(v % k)
	}
	rng.Shuffle(len(randPart), func(i, j int) { randPart[i], randPart[j] = randPart[j], randPart[i] })
	randCut := Cut(g, randPart)
	if res.Cut >= randCut {
		t.Errorf("multilevel cut %d not better than random cut %d", res.Cut, randCut)
	}
	// On this graph the gap should be substantial.
	if float64(res.Cut) > 0.8*float64(randCut) {
		t.Errorf("multilevel cut %d vs random %d: expected > 20%% improvement", res.Cut, randCut)
	}
}

func TestPartitionGridQuality(t *testing.T) {
	// A 16×16 grid split into 4 blocks: the optimum is 2 straight cuts
	// (cut 32). Accept anything ≤ 2x optimum.
	g := grid(16, 16)
	res, err := Partition(g, Config{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut > 64 {
		t.Errorf("grid16x16 k=4 cut = %d, want ≤ 64", res.Cut)
	}
}

func TestPartitionDeterministicPerSeed(t *testing.T) {
	g := randomGraph(300, 900, 7)
	a, err := Partition(g, Config{K: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, Config{K: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Part {
		if a.Part[v] != b.Part[v] {
			t.Fatal("same seed must give identical partitions")
		}
	}
}

func TestEvaluate(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	part := []int32{0, 0, 1, 1}
	res := Evaluate(g, part, 2)
	if res.Cut != 1 {
		t.Errorf("cut = %d, want 1", res.Cut)
	}
	if res.MaxBlock != 2 {
		t.Errorf("max block = %d, want 2", res.MaxBlock)
	}
	if res.Balance != 1.0 {
		t.Errorf("balance = %f, want 1.0", res.Balance)
	}
}

func TestHeavyEdgeMatchingValid(t *testing.T) {
	g := randomGraph(200, 600, 13)
	rng := rand.New(rand.NewSource(1))
	coarse, nc := heavyEdgeMatching(g, rng, 0)
	if nc > g.N() || nc < g.N()/2 {
		t.Fatalf("coarse count %d out of range [%d,%d]", nc, g.N()/2, g.N())
	}
	// Each coarse vertex has 1 or 2 fine vertices, and pairs are adjacent.
	groups := make(map[int32][]int, nc)
	for v, c := range coarse {
		groups[c] = append(groups[c], v)
	}
	for c, vs := range groups {
		switch len(vs) {
		case 1:
		case 2:
			if !g.HasEdge(vs[0], vs[1]) {
				t.Fatalf("coarse vertex %d merges non-adjacent %v", c, vs)
			}
		default:
			t.Fatalf("coarse vertex %d has %d members", c, len(vs))
		}
	}
}

func TestCoarseningPreservesWeight(t *testing.T) {
	g := randomGraph(300, 1000, 17)
	rng := rand.New(rand.NewSource(2))
	levels := buildHierarchy(g, Config{K: 4}.withDefaults(), rng, 0)
	for i := 1; i < len(levels); i++ {
		if levels[i].g.TotalVertexWeight() != g.TotalVertexWeight() {
			t.Fatalf("level %d lost vertex weight", i)
		}
		if levels[i].g.N() >= levels[i-1].g.N() {
			t.Fatalf("level %d did not shrink", i)
		}
	}
}

func TestFMImprovesOrKeepsCut(t *testing.T) {
	g := grid(10, 10)
	rng := rand.New(rand.NewSource(4))
	// Start from a random balanced bisection.
	side := make([]int32, g.N())
	for v := range side {
		side[v] = int32(v % 2)
	}
	rng.Shuffle(len(side), func(i, j int) { side[i], side[j] = side[j], side[i] })
	before := Cut(g, side)
	refineBisection(g, side, 45, 55, 6)
	after := Cut(g, side)
	if after > before {
		t.Errorf("FM worsened cut: %d -> %d", before, after)
	}
	if w := sideWeight(g, side); w < 45 || w > 55 {
		t.Errorf("FM violated weight window: %d", w)
	}
	// FM from random on a grid should roughly find a straight-ish cut.
	if after > before/2 {
		t.Errorf("FM cut %d, want < half of random %d", after, before)
	}
}

func TestRebalanceBisection(t *testing.T) {
	g := grid(6, 6)
	side := make([]int32, g.N()) // all on side 0
	rebalanceBisection(g, side, 15, 21)
	w := sideWeight(g, side)
	if w < 15 || w > 21 {
		t.Errorf("rebalance failed: side-0 weight %d not in [15,21]", w)
	}
}

func TestEnforceBalanceRepairsOverload(t *testing.T) {
	g := grid(8, 8)
	cfg := Config{K: 4, Epsilon: 0.03}.withDefaults()
	part := make([]int32, g.N()) // everything in block 0: grossly unbalanced
	enforceBalance(g, part, cfg)
	if !IsBalanced(g, part, 4, 0.03) {
		t.Errorf("enforceBalance left imbalance: %v", BlockWeights(g, part, 4))
	}
}

func TestWeightedVerticesRespected(t *testing.T) {
	// Heavy vertices must not break balance.
	b := graph.NewBuilder(20)
	for v := 0; v+1 < 20; v++ {
		b.AddEdge(v, v+1, 1)
	}
	for v := 0; v < 20; v++ {
		b.SetVertexWeight(v, int64(1+v%3))
	}
	g := b.Build()
	res, err := Partition(g, Config{K: 4, Epsilon: 0.1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if !IsBalanced(g, res.Part, 4, 0.1) {
		t.Errorf("weighted partition unbalanced: %v", BlockWeights(g, res.Part, 4))
	}
}

func TestPartition256Blocks(t *testing.T) {
	// The paper's K=256 on a mid-size graph.
	g := randomGraph(4000, 12000, 23)
	res, err := Partition(g, Config{K: 256, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if !IsBalanced(g, res.Part, 256, 0.03) {
		t.Error("K=256 partition not balanced")
	}
	w := BlockWeights(g, res.Part, 256)
	empty := 0
	for _, bw := range w {
		if bw == 0 {
			empty++
		}
	}
	if empty > 0 {
		t.Errorf("%d empty blocks", empty)
	}
}

func BenchmarkPartitionGrid32K8(b *testing.B) {
	g := grid(180, 180)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(g, Config{K: 8, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
