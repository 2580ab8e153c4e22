// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 7). Each benchmark runs the corresponding
// experiment at a reduced scale (the suite shrunk to CI size, fewer
// repetitions, smaller NH) and reports the headline quantities as custom
// benchmark metrics, so `go test -bench=.` doubles as a smoke
// reproduction. cmd/experiments regenerates the full tables with
// paper-sized parameters.
//
// Metric naming: qCo_* is the geometric-mean Coco quotient after/before
// TIMER (< 1 means TIMER improved the mapping), qCut_* the edge-cut
// quotient, qT_* the time quotient vs the baseline.
package repro

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/topology"
)

const (
	benchScale = 0.004
	benchMaxV  = 3000
	benchMaxE  = 70000
)

// benchNetworks lists the Table 1 networks whose scaled size stays
// within maxV vertices and maxE edges.
func benchNetworks(scale float64, maxV, maxE int) []netgen.NetworkSpec {
	var out []netgen.NetworkSpec
	for _, net := range netgen.Catalog() {
		if net.ScaledV(scale) <= maxV && int(float64(net.FullE)*scale) <= maxE {
			out = append(out, net)
		}
	}
	return out
}

// benchSpec is the paper matrix (bench.Paper()) reduced to CI size for
// the given cases: the suite shrunk and bounded, one repetition, NH = 5.
func benchSpec(cases ...string) bench.Spec {
	s := bench.Paper()
	s.Scale, s.Reps, s.NumHierarchies, s.Seed, s.Cases = benchScale, 1, 5, 1, cases
	s.Networks = nil
	for _, net := range benchNetworks(benchScale, benchMaxV, benchMaxE) {
		s.Networks = append(s.Networks, net.Name)
	}
	return s
}

// BenchmarkTable1NetworkSuite regenerates Table 1: the 15-network suite.
func BenchmarkTable1NetworkSuite(b *testing.B) {
	b.ReportAllocs()
	var totalV, totalE int
	for i := 0; i < b.N; i++ {
		totalV, totalE = 0, 0
		for _, net := range netgen.Catalog() {
			g := net.Generate(benchScale, int64(i))
			totalV += g.N()
			totalE += g.M()
		}
	}
	b.ReportMetric(float64(totalV), "vertices")
	b.ReportMetric(float64(totalE), "edges")
}

// benchCase runs one experimental case over the reduced suite and
// reports the per-topology Coco quotients (the content of one Figure 5
// subplot) plus the aggregate time quotient (one column group of
// Table 2), aggregated as cmd/experiments does: geometric means over
// the networks.
func benchCase(b *testing.B, c string) {
	b.Helper()
	var res *bench.Results
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = bench.Run(benchSpec(c), bench.RunOptions{}); err != nil {
			b.Fatal(err)
		}
		if res.Summary.Failed > 0 {
			b.Fatalf("%d scenarios failed", res.Summary.Failed)
		}
	}
	var qtSum float64
	pts := topology.PaperTopologies()
	for _, pt := range pts {
		spec, _ := topology.ParseSpec(pt.String())
		var qco, qt []float64
		for _, sr := range res.Scenarios {
			if sr.Topology == spec.String() {
				qco = append(qco, sr.Quality.CocoQuotient.Mean)
				qt = append(qt, metrics.Quotient(sr.Perf.TimerSeconds, sr.Perf.BaseSeconds).Mean)
			}
		}
		b.ReportMetric(metrics.GeoMean(qco), "qCo_"+pt.String())
		qtSum += metrics.GeoMean(qt)
	}
	b.ReportMetric(qtSum/float64(len(pts)), "qT_mean")
}

// BenchmarkFigure5a_SCOTCH regenerates Figure 5a (case c1: TIMER on DRB
// initial mappings) and the c1 columns of Table 2.
func BenchmarkFigure5a_SCOTCH(b *testing.B) { benchCase(b, "scotch") }

// BenchmarkFigure5b_Identity regenerates Figure 5b (case c2).
func BenchmarkFigure5b_Identity(b *testing.B) { benchCase(b, "identity") }

// BenchmarkFigure5c_GreedyAllC regenerates Figure 5c (case c3).
func BenchmarkFigure5c_GreedyAllC(b *testing.B) { benchCase(b, "greedyallc") }

// BenchmarkFigure5d_GreedyMin regenerates Figure 5d (case c4).
func BenchmarkFigure5d_GreedyMin(b *testing.B) { benchCase(b, "greedymin") }

// BenchmarkTable2RuntimeQuotients regenerates Table 2 across all four
// cases (this is the full evaluation; the figure benchmarks above cover
// its per-case columns individually).
func BenchmarkTable2RuntimeQuotients(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(benchSpec("scotch", "identity", "greedyallc", "greedymin"), bench.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.Failed > 0 {
			b.Fatalf("%d scenarios failed", res.Summary.Failed)
		}
	}
}

// BenchmarkTable3PartitionTimes regenerates Table 3: partitioner
// running times for |Vp| = 256 and 512 over the suite.
func BenchmarkTable3PartitionTimes(b *testing.B) {
	var graphs []*graph.Graph
	for _, net := range benchNetworks(0.02, 20000, 200000) {
		graphs = append(graphs, net.Generate(0.02, 1))
	}
	b.ResetTimer()
	var sum256, sum512 float64
	for i := 0; i < b.N; i++ {
		sum256, sum512 = 0, 0
		for _, g := range graphs {
			for _, k := range []int{256, 512} {
				if g.N() <= k {
					continue
				}
				t0 := time.Now()
				if _, err := partition.Partition(g, partition.Config{K: k, Epsilon: 0.03, Seed: 1}); err != nil {
					b.Fatal(err)
				}
				if k == 256 {
					sum256 += time.Since(t0).Seconds()
				} else {
					sum512 += time.Since(t0).Seconds()
				}
			}
		}
	}
	b.ReportMetric(sum256, "s_k256_total")
	b.ReportMetric(sum512, "s_k512_total")
}

// BenchmarkTimerEnhance measures TIMER alone (one hierarchy batch per
// topology) on a fixed network — the core algorithm's throughput,
// O(NH·|Ea|·dimGa).
func BenchmarkTimerEnhance(b *testing.B) {
	ga := netgen.Generate(netgen.RMAT, 4000, 16000, 7)
	for _, pt := range topology.PaperTopologies() {
		topo := pt.MustBuild()
		part, err := partition.Partition(ga, partition.Config{K: topo.P(), Epsilon: 0.03, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		assign := MapIdentity(part.Part)
		b.Run(topo.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Enhance(ga, topo, assign, TimerOptions{NumHierarchies: 5, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineArtifactCache measures one mapping job through the
// engine with a cold artifact cache (fresh engine per iteration, the
// labeling, graph and partition are rebuilt every time) versus a warm
// one (shared engine, each is built once) — the latency win the
// engine's shared cache buys every request after the first.
func BenchmarkEngineArtifactCache(b *testing.B) {
	spec := engine.JobSpec{
		Graph:          engine.GraphSpec{Network: "p2p-Gnutella", Scale: 0.05, Seed: 11},
		Topology:       "torus:16x16",
		Case:           engine.C2Identity,
		Seed:           42,
		NumHierarchies: 3,
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.Options{Workers: 1})
			if _, err := eng.Run(spec); err != nil {
				b.Fatal(err)
			}
			eng.Close()
		}
	})
	b.Run("cached", func(b *testing.B) {
		eng := engine.New(engine.Options{Workers: 1})
		defer eng.Close()
		if _, err := eng.Topology(spec.Topology); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(spec); err != nil {
				b.Fatal(err)
			}
		}
		st := eng.Stats().Artifacts
		b.ReportMetric(float64(st.Hits)/float64(b.N), "cache_hits/op")
		b.ReportMetric(float64(st.Misses)/float64(b.N), "cache_misses/op")
	})
}

// BenchmarkPartitioner measures the KaHIP-substitute partitioner at the
// paper's block counts (the denominator of Table 2's quotients).
func BenchmarkPartitioner(b *testing.B) {
	ga := netgen.Generate(netgen.RMAT, 6000, 24000, 9)
	for _, k := range []int{256, 512} {
		b.Run(map[int]string{256: "k256", 512: "k512"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partition.Partition(ga, partition.Config{K: k, Epsilon: 0.03, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
