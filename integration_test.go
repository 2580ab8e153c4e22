package repro

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// TestIntegrationAllCasesAllTopologies runs the complete pipeline —
// generate, partition/map with every baseline, enhance with TIMER,
// validate — on every paper topology. This is the repository's
// cross-module smoke test.
func TestIntegrationAllCasesAllTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline across 20 case/topology pairs")
	}
	ga := netgen.Generate(netgen.RMAT, 1600, 6500, 99)
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	for _, pt := range topology.PaperTopologies() {
		topo := pt.MustBuild()
		if ga.N() <= topo.P() {
			t.Fatalf("test instance too small for %s", topo.Name)
		}
		for _, c := range engine.Cases() {
			m, err := eng.Run(integrationJob(ga, topo, c, 3, 9))
			if err != nil {
				t.Fatalf("%s on %s: %v", c, topo.Name, err)
			}
			if m.CocoAfter > m.CocoBefore {
				t.Errorf("%s on %s: Coco worsened %d -> %d", c, topo.Name, m.CocoBefore, m.CocoAfter)
			}
			if m.CutBefore <= 0 || m.CutAfter <= 0 {
				t.Errorf("%s on %s: degenerate cuts %d -> %d", c, topo.Name, m.CutBefore, m.CutAfter)
			}
			if m.BaseSeconds <= 0 || m.TimerSeconds <= 0 {
				t.Errorf("%s on %s: missing Table 2 timings (base %g s, TIMER %g s)", c, topo.Name, m.BaseSeconds, m.TimerSeconds)
			}
		}
	}
}

// TestIntegrationImprovementShape verifies the paper's headline ordering
// on a single mid-size instance: the generic DRB baseline leaves more
// room for TIMER than the topology-aware greedies.
func TestIntegrationImprovementShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-case comparison")
	}
	ga := netgen.Generate(netgen.RMAT, 2500, 11000, 5)
	topo, err := Grid(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	gain := map[engine.Case]float64{}
	for _, c := range engine.Cases() {
		m, err := eng.Run(integrationJob(ga, topo, c, 8, 4))
		if err != nil {
			t.Fatal(err)
		}
		gain[c] = 1 - float64(m.CocoAfter)/float64(m.CocoBefore)
	}
	// c1 (DRB) must see a strictly larger improvement than the greedy
	// baselines c3/c4 (paper Section 7.2: "TIMER is able to decrease the
	// communication costs significantly for c1, even more than in the
	// other cases").
	if gain[engine.C1SCOTCH] <= gain[engine.C3GreedyAllC] ||
		gain[engine.C1SCOTCH] <= gain[engine.C4GreedyMin] {
		t.Errorf("improvement ordering violated: c1=%.3f c2=%.3f c3=%.3f c4=%.3f",
			gain[engine.C1SCOTCH], gain[engine.C2Identity],
			gain[engine.C3GreedyAllC], gain[engine.C4GreedyMin])
	}
	for c, g := range gain {
		if g < 0 {
			t.Errorf("%s: negative improvement %.3f", c, g)
		}
	}
}

// integrationJob is one pipeline run of ga on topo: partition (or DRB)
// at ε = 0.03, the case's initial mapping, then TIMER with nh
// hierarchies, all seeded with seed.
func integrationJob(ga *graph.Graph, topo *topology.Topology, c engine.Case, nh int, seed int64) engine.JobSpec {
	return engine.JobSpec{
		Graph:          engine.GraphSpec{G: ga},
		Topo:           topo,
		Case:           c,
		Epsilon:        0.03,
		Seed:           seed,
		NumHierarchies: nh,
	}
}
