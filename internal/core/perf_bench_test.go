package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/topology"
)

// benchShape is one hot-path workload: a random graph with n vertices
// and extra non-tree edges, mapped round-robin onto a rows×cols grid.
type benchShape struct {
	name       string
	n, extra   int
	rows, cols int
	dimGa      int
}

// benchShapes are the shared hot-path workloads. "dimGa19" is a
// 2048-vertex graph on an 8×8 grid: 14 topology digits plus 5 extension
// digits. "dimGa34" is a 2560-vertex graph on a 16×16 grid, the paper's
// shape: 30 topology digits plus 4 extension digits, so the hierarchy
// is deep and most of its levels merge only a few vertices.
var benchShapes = []benchShape{
	{name: "dimGa19", n: 2048, extra: 6144, rows: 8, cols: 8, dimGa: 19},
	{name: "dimGa34", n: 2560, extra: 7680, rows: 16, cols: 16, dimGa: 34},
}

func benchInstanceOf(tb testing.TB, s benchShape) *Labeling {
	tb.Helper()
	topo, _ := topology.Grid(s.rows, s.cols)
	ga := randomGraph(s.n, s.extra, 1)
	assign := balancedAssign(s.n, s.rows*s.cols, 2)
	lab, err := NewLabeling(ga, topo, assign, rand.New(rand.NewSource(3)))
	if err != nil {
		tb.Fatal(err)
	}
	if lab.DimGa != s.dimGa {
		tb.Fatalf("%s: dimGa = %d, want %d", s.name, lab.DimGa, s.dimGa)
	}
	return lab
}

// benchInstance is the shallow shape, shared by the single-instance
// benchmarks below.
func benchInstance(tb testing.TB) *Labeling { return benchInstanceOf(tb, benchShapes[0]) }

// warmTrial prepares one hierarchy trial on lab with a warm Scratch and
// returns a closure that reruns it.
func warmTrial(lab *Labeling) (*Scratch, func()) {
	pi := bitvec.Random(rand.New(rand.NewSource(5)), lab.DimGa)
	plus, minus := lab.LpMask(), lab.ExtMask()
	coco, div := cocoAndDivOfLabels(lab.Ga, lab.Labels, plus, minus)
	sc := NewScratch()
	run := func() {
		tryHierarchy(lab.Ga, lab.Labels, lab.DimGa, pi, plus, minus, 1, coco, coco-div, sc)
	}
	run()
	return sc, run
}

// BenchmarkTryHierarchy measures one full hierarchy trial — the unit
// TIMER runs NumHierarchies times per job — on a warm scratch, for each
// benchmark shape.
func BenchmarkTryHierarchy(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			_, run := warmTrial(benchInstanceOf(b, s))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// TestTryHierarchyWarmScratchZeroAllocs is the tentpole guarantee: once
// a Scratch is warm, a full hierarchy trial performs no heap allocation,
// on a shallow and on a deep hierarchy.
func TestTryHierarchyWarmScratchZeroAllocs(t *testing.T) {
	for _, s := range benchShapes {
		t.Run(s.name, func(t *testing.T) {
			_, run := warmTrial(benchInstanceOf(t, s))
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("warm-scratch tryHierarchy allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}

// TestScratchRetainsTwoGraphBuffers: a warm Scratch retains at most two
// CSR graph buffers, together no larger than two copies of the
// application graph, however deep the hierarchy it built.
func TestScratchRetainsTwoGraphBuffers(t *testing.T) {
	for _, s := range benchShapes {
		t.Run(s.name, func(t *testing.T) {
			lab := benchInstanceOf(t, s)
			sc, _ := warmTrial(lab)
			if sc.nlev != lab.DimGa-1 {
				t.Fatalf("hierarchy has %d levels, want dimGa-1 = %d", sc.nlev, lab.DimGa-1)
			}
			count, bytes := graphBuffers(reflect.ValueOf(sc).Elem())
			if count > 2 {
				t.Errorf("Scratch retains %d graph buffers, want at most 2", count)
			}
			if limit := 2 * lab.Ga.FootprintBytes(); bytes > limit {
				t.Errorf("Scratch retains %d bytes of graph storage, want at most %d", bytes, limit)
			}
		})
	}
}

// graphBuffers walks v without following pointers and returns how many
// graph.Graph values with allocated storage it holds, and their summed
// slice capacity in bytes.
func graphBuffers(v reflect.Value) (count int, bytes int64) {
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(graph.Graph{}) {
			for i := 0; i < v.NumField(); i++ {
				if f := v.Field(i); f.Kind() == reflect.Slice {
					bytes += int64(f.Cap()) * int64(f.Type().Elem().Size())
				}
			}
			if bytes > 0 {
				count = 1
			}
			return count, bytes
		}
		for i := 0; i < v.NumField(); i++ {
			c, b := graphBuffers(v.Field(i))
			count, bytes = count+c, bytes+b
		}
	case reflect.Array, reflect.Slice:
		switch v.Type().Elem().Kind() {
		case reflect.Struct, reflect.Array, reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				c, b := graphBuffers(v.Index(i))
				count, bytes = count+c, bytes+b
			}
		}
	}
	return count, bytes
}

// BenchmarkSuffixTrieAssemble isolates the Algorithm 2 half of a trial:
// rebuilding the counting trie and assembling a fine labeling from a
// built hierarchy.
func BenchmarkSuffixTrieAssemble(b *testing.B) {
	lab := benchInstance(b)
	pi := bitvec.Random(rand.New(rand.NewSource(7)), lab.DimGa)
	plus, minus := lab.LpMask(), lab.ExtMask()
	sc := NewScratch()
	sc.fwd.CompileInto(pi)
	sc.perm = graph.Resize(sc.perm, len(lab.Labels))
	for v, l := range lab.Labels {
		sc.perm[v] = sc.fwd.Apply(l)
	}
	sc.signs = sc.signs[:lab.DimGa]
	for j := range sc.signs {
		if uint64(1)<<uint(pi[j])&plus != 0 {
			sc.signs[j] = 1
		} else if uint64(1)<<uint(pi[j])&minus != 0 {
			sc.signs[j] = -1
		}
	}
	sc.buildHierarchy(lab.Ga, lab.DimGa, sc.signs, 1)
	sc.assembled = graph.Resize(sc.assembled, len(lab.Labels))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.trie.build(sc.perm, lab.DimGa)
		assemble(sc.levels[:sc.nlev], lab.DimGa, &sc.trie, sc.assembled, sc.path)
	}
}

// BenchmarkEnhance measures a whole TIMER run end to end, the way an
// engine worker executes it (one warm scratch across hierarchies).
func BenchmarkEnhance(b *testing.B) {
	topo, _ := topology.Grid(8, 8)
	ga := randomGraph(2048, 6144, 1)
	assign := balancedAssign(2048, 64, 2)
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Enhance(ga, topo, assign, Options{NumHierarchies: 8, Seed: 9, Scratch: sc}); err != nil {
			b.Fatal(err)
		}
	}
}
