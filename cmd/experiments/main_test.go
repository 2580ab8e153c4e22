package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/topology"
)

func mkTriple(x float64) metrics.Triple { return metrics.Triple{Min: x, Mean: x, Max: x} }

// scenario fakes one finished matrix cell with the given quotients.
func scenario(network, topo string, c engine.Case, qT, qCut, qCo float64) bench.ScenarioResult {
	return bench.ScenarioResult{
		Scenario: bench.Scenario{Network: network, Topology: topo, Case: c},
		Quality:  &bench.Quality{CutQuotient: mkTriple(qCut), CocoQuotient: mkTriple(qCo)},
		Perf:     &bench.Perf{TimerSeconds: mkTriple(qT), BaseSeconds: mkTriple(1)},
	}
}

// fields returns the whitespace-separated cells of the row named name
// in the block of out (up to a blank line) that starts with title,
// e.g. the grid16x16 row of Figure 5b.
func fields(t *testing.T, out, title, name string) []string {
	t.Helper()
	block := out[strings.Index(out, title):]
	block = block[:strings.Index(block+"\n\n", "\n\n")]
	for _, line := range strings.Split(block, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			return f
		}
	}
	t.Fatalf("no %s row after %q in:\n%s", name, title, out)
	return nil
}

func TestAggregateGeoMean(t *testing.T) {
	failed := scenario("z", "grid:16x16", engine.C2Identity, 100, 100, 100)
	failed.Error = "boom"
	res := &bench.Results{Scenarios: []bench.ScenarioResult{
		scenario("a", "grid:16x16", engine.C2Identity, 2, 1, 0.5),
		scenario("a", "hypercube:8", engine.C2Identity, 3, 1, 0.9),
		scenario("b", "grid:16x16", engine.C2Identity, 8, 1, 0.125),
		failed,
	}}
	var buf bytes.Buffer
	if err := writeTable2(&buf, res); err != nil {
		t.Fatal(err)
	}
	if err := writeFigure5(&buf, engine.C2Identity, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// qT: geomean(2, 8) = 4 in the IDENTITY group (columns 4–6); the
	// failed scenario is left out.
	if got := fields(t, out, "Table 2", "grid16x16"); got[5] != "4.0000" || got[1] != "-" {
		t.Errorf("table 2 grid16x16 row %v, want IDENTITY qTmean 4.0000 and no SCOTCH data", got)
	}
	// Co: geomean(0.5, 0.125) = 0.25, gsd = 2; hypercube:8 renders as
	// the paper's 8-dimHQ.
	if got := fields(t, out, "Figure 5b", "grid16x16"); got[5] != "0.2500" || got[7] != "2.000" {
		t.Errorf("figure 5b grid16x16 row %v, want Co 0.2500 and gsd 2.000", got)
	}
	if got := fields(t, out, "Figure 5b", "8-dimHQ"); got[5] != "0.9000" {
		t.Errorf("figure 5b 8-dimHQ row %v, want Co 0.9000", got)
	}
}

func TestCaseStrings(t *testing.T) {
	want := []string{"5a SCOTCH", "5b IDENTITY", "5c GREEDYALLC", "5d GREEDYMIN"}
	for i, c := range engine.Cases() {
		if got := figure(c) + " " + c.String(); got != want[i] {
			t.Errorf("case %d: %q, want %q", i, got, want[i])
		}
	}
}

func TestPaperSpec(t *testing.T) {
	paper := bench.Paper()
	paper.Scale = 0.01
	o := options{paper: paper, maxV: 3000, maxE: 20000, figure: "5c"}
	s := o.spec()
	if fmt.Sprint(s.Topologies) != fmt.Sprint(paper.Topologies) {
		t.Errorf("topologies %v, want bench.Paper()'s %v", s.Topologies, paper.Topologies)
	}
	if fmt.Sprint(s.Cases) != "[greedyallc]" {
		t.Errorf("cases %v, want only Figure 5c's", s.Cases)
	}
	// At 1%, as-skitter and coPapersDBLP exceed -maxv (5549 and 5404
	// vertices); the small networks stay.
	if len(s.Networks) == 0 || len(s.Networks) >= len(paper.Networks) {
		t.Fatalf("networks %v: -maxv/-maxe did not filter", s.Networks)
	}
	for _, n := range s.Networks {
		if n == "as-skitter" || n == "coPapersDBLP" {
			t.Errorf("%s kept despite the bounds", n)
		}
	}
	o.figure, o.table = "", "2"
	if s := o.spec(); len(s.Cases) != 4 {
		t.Errorf("Table 2 needs all four cases, got %v", s.Cases)
	}
}

func TestReportWriters(t *testing.T) {
	res := &bench.Results{Scenarios: []bench.ScenarioResult{scenario("x", "grid:16x16", engine.C2Identity, 0.5, 1.05, 0.85)}}
	var buf bytes.Buffer
	if err := writeTable2(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Table 2:") || !strings.Contains(out, "IDENTITY qTmin") {
		t.Errorf("table 2 header wrong:\n%s", out)
	}
	for _, pt := range topology.PaperTopologies() {
		if !strings.Contains(out, "\n"+pt.String()+" ") {
			t.Errorf("table 2 missing topology row %s", pt)
		}
	}
	buf.Reset()
	if err := writeFigure5(&buf, engine.C2Identity, res); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.HasPrefix(out, "Figure 5b:") || strings.Count(out, "\n") != 3 || !strings.Contains(out, "\ngrid16x16 ") {
		t.Errorf("figure 5b wants a title, a header and one grid16x16 row:\n%s", out)
	}
	buf.Reset()
	spec, _ := netgen.ByName("p2p-Gnutella")
	if err := writeTable3(&buf, []netgen.Instance{{Spec: spec, G: spec.Generate(0.01, 1)}}, 0.03, 1, func(string) {}); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "\np2p-Gnutella ") || !strings.Contains(out, "Geometric mean") {
		t.Errorf("table 3 missing rows:\n%s", out)
	}
	if lines := strings.Count(string(instanceCSV(res)), "\n"); lines != 2 {
		t.Errorf("CSV has %d lines, want 2", lines)
	}
}

// TestRunFigure5MatchesBenchResults runs the whole command on a tiny
// suite and checks every Figure 5 Co cell against the geometric mean
// of that topology's Coco quotients taken straight from the
// bench.Results the run rendered.
func TestRunFigure5MatchesBenchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper matrix at a tiny scale")
	}
	var buf bytes.Buffer
	paper := bench.Paper()
	paper.Scale, paper.Reps, paper.NumHierarchies = 0.004, 1, 2
	res, err := run(&buf, options{paper: paper, maxV: 1000, progress: func(string) {}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, title := range []string{"Table 1:", "Table 2:", "Figure 5a:", "Figure 5b:", "Figure 5c:", "Figure 5d:", "Table 3:"} {
		if !strings.Contains(out, title) {
			t.Errorf("output lacks %q", title)
		}
	}
	for _, c := range engine.Cases() {
		for _, pt := range topology.PaperTopologies() {
			spec, _ := topology.ParseSpec(pt.String())
			var means []float64
			for _, sr := range res.Scenarios {
				if sr.Case == c && sr.Topology == spec.String() {
					means = append(means, sr.Quality.CocoQuotient.Mean)
				}
			}
			got := fields(t, out, "Figure "+figure(c)+":", pt.String())
			if want := fmt.Sprintf("%.4f", metrics.GeoMean(means)); got[5] != want {
				t.Errorf("figure %s %s: Co %s, want %s from %d scenarios", figure(c), pt, got[5], want, len(means))
			}
		}
	}
}
