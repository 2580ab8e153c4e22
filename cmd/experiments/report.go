package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/topology"
)

// cell returns the finished scenarios of one (case, topology) cell of
// Table 2 and Figure 5, in matrix (network) order. Scenarios carry
// canonical topology specs; the paper's names are ParseSpec aliases of
// them.
func cell(res *bench.Results, c engine.Case, pt topology.PaperTopology) []bench.ScenarioResult {
	spec, _ := topology.ParseSpec(pt.String())
	var out []bench.ScenarioResult
	for _, sr := range res.Scenarios {
		if sr.Case == c && sr.Topology == spec.String() && sr.Error == "" {
			out = append(out, sr)
		}
	}
	return out
}

// qT is a scenario's running-time quotient: TIMER time over the
// baseline's (the DRB mapping for c1, the partitioner for c2–c4).
func qT(sr bench.ScenarioResult) metrics.Triple {
	return metrics.Quotient(sr.Perf.TimerSeconds, sr.Perf.BaseSeconds)
}

// writeTable2 prints the running-time quotients in the layout of the
// paper's Table 2: one row per topology, one 3-column group (qT min,
// mean, max geometric means over the networks) per case.
func writeTable2(w io.Writer, res *bench.Results) error {
	fmt.Fprintln(w, "Table 2: Running time quotients per experimental case.")
	fmt.Fprintln(w, "(c1 relative to the DRB/SCOTCH mapping time; c2-c4 relative to the partitioner.)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "topology")
	for _, c := range engine.Cases() {
		fmt.Fprintf(tw, "\t%s qTmin\tqTmean\tqTmax", c)
	}
	fmt.Fprintln(tw)
	for _, pt := range topology.PaperTopologies() {
		fmt.Fprint(tw, pt)
		for _, c := range engine.Cases() {
			var qt metrics.TripleAgg
			for _, sr := range cell(res, c, pt) {
				qt.Add(qT(sr))
			}
			if qt.N() == 0 {
				fmt.Fprint(tw, "\t-\t-\t-")
				continue
			}
			gm := qt.GeoMean()
			fmt.Fprintf(tw, "\t%.4f\t%.4f\t%.4f", gm.Min, gm.Mean, gm.Max)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// writeFigure5 prints one subfigure of Figure 5 (quality results for a
// case): for each topology, the geometric means over the networks of
// the Cut and Co quotients (min/mean/max), with the geometric standard
// deviation of Co.
func writeFigure5(w io.Writer, c engine.Case, res *bench.Results) error {
	fmt.Fprintf(w, "Figure %s: quality quotients after TIMER on %s initial mappings.\n", figure(c), c)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "topology\tminCut\tCut\tmaxCut\tminCo\tCo\tmaxCo\tgsd(Co)")
	for _, pt := range topology.PaperTopologies() {
		var qcut, qco metrics.TripleAgg
		for _, sr := range cell(res, c, pt) {
			qcut.Add(sr.Quality.CutQuotient)
			qco.Add(sr.Quality.CocoQuotient)
		}
		if qco.N() == 0 {
			continue
		}
		cut, co := qcut.GeoMean(), qco.GeoMean()
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.3f\n",
			pt, cut.Min, cut.Mean, cut.Max, co.Min, co.Mean, co.Max, qco.GeoStd().Mean)
	}
	return tw.Flush()
}

// instanceCSV renders the raw per-instance quotients as CSV for
// external plotting of Figure 5.
func instanceCSV(res *bench.Results) []byte {
	var w bytes.Buffer
	fmt.Fprintln(&w, "case,topology,network,qtmin,qtmean,qtmax,qcutmin,qcutmean,qcutmax,qcomin,qcomean,qcomax")
	for _, c := range engine.Cases() {
		for _, pt := range topology.PaperTopologies() {
			for _, sr := range cell(res, c, pt) {
				t, cut, co := qT(sr), sr.Quality.CutQuotient, sr.Quality.CocoQuotient
				fmt.Fprintf(&w, "%s,%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n", c, pt, sr.Network,
					t.Min, t.Mean, t.Max, cut.Min, cut.Mean, cut.Max, co.Min, co.Mean, co.Max)
			}
		}
	}
	return w.Bytes()
}

// writeTable3 times the partitioner alone at |Vp| = 256 and 512 on
// every instance (0 where the instance has too few vertices) and prints
// the timings in the layout of the paper's Table 3 (appendix),
// including arithmetic and geometric means.
func writeTable3(w io.Writer, nets []netgen.Instance, eps float64, seed int64, progress func(string)) error {
	nets = append([]netgen.Instance(nil), nets...)
	sort.Slice(nets, func(i, j int) bool { return nets[i].Spec.Name < nets[j].Spec.Name })
	fmt.Fprintln(w, "Table 3: partitioner running times (seconds) for |Vp| = 256 and 512.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Name\t|Vp|=256\t|Vp|=512")
	var times [2][]float64
	for _, net := range nets {
		fmt.Fprint(tw, net.Spec.Name)
		for i, k := range []int{256, 512} {
			var s float64
			if net.G.N() > k {
				t0 := time.Now()
				if _, err := partition.Partition(net.G, partition.Config{K: k, Epsilon: eps, Seed: seed}); err != nil {
					return err
				}
				s = time.Since(t0).Seconds()
				times[i] = append(times[i], s)
				progress(fmt.Sprintf("partition %s k=%d: %.3fs", net.Spec.Name, k, s))
			}
			fmt.Fprintf(tw, "\t%.3f", s)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "Arithmetic mean\t%.3f\t%.3f\n", metrics.ArithMean(times[0]), metrics.ArithMean(times[1]))
	fmt.Fprintf(tw, "Geometric mean\t%.3f\t%.3f\n", metrics.GeoMean(times[0]), metrics.GeoMean(times[1]))
	return tw.Flush()
}
