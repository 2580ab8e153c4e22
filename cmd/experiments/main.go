// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 7): Table 1 (network suite), Table 2 (running-time
// quotients), Table 3 (partition times) and Figures 5a-5d (quality
// quotients per experimental case).
//
// It runs the bench.Paper() matrix through bench.Run, as mapbench -full
// does, with the flags overriding its scale, repetitions, NH, imbalance
// and seed and -maxv/-maxe dropping networks. Table 2 and Figure 5 are
// views over the bench.Results; Tables 1 and 3 describe and time the
// same instances, each network generated with the matrix seed.
//
// Usage:
//
//	experiments -scale 0.02 -reps 3 -nh 10            # quick pass, everything
//	experiments -table 2                              # just Table 2
//	experiments -figure 5c                            # just Figure 5c
//	experiments -scale 1 -reps 5 -nh 50               # paper-sized run (hours)
//	experiments -csv results.csv                      # raw per-instance CSV
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/netgen"
)

// options are the command's flags: the paper matrix's parameters set
// straight into a bench.Paper() spec, plus the output selection.
type options struct {
	paper                  bench.Spec
	maxV, maxE             int
	table, figure, csvPath string
	progress               func(string)
}

func main() {
	o := options{paper: bench.Paper()}
	flag.Float64Var(&o.paper.Scale, "scale", 0.02, "network scale in (0,1]; 1 = paper-sized instances")
	flag.IntVar(&o.maxV, "maxv", 60000, "skip networks with more than this many scaled vertices (0 = keep all)")
	flag.IntVar(&o.maxE, "maxe", 0, "skip networks with more than this many scaled edges (0 = keep all)")
	flag.IntVar(&o.paper.Reps, "reps", 3, "repetitions per instance (paper: 5)")
	flag.IntVar(&o.paper.NumHierarchies, "nh", 10, "TIMER hierarchies NH (paper: 50)")
	flag.Float64Var(&o.paper.Epsilon, "eps", 0.03, "partitioning imbalance")
	flag.Int64Var(&o.paper.Seed, "seed", 1, "base random seed")
	flag.StringVar(&o.table, "table", "", "regenerate only this table (1, 2 or 3)")
	flag.StringVar(&o.figure, "figure", "", "regenerate only this figure (5a, 5b, 5c or 5d)")
	flag.StringVar(&o.csvPath, "csv", "", "also write raw per-instance quotients to this CSV file")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	o.progress = func(msg string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s] %s\n", time.Now().Format("15:04:05"), msg)
		}
	}
	if _, err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// want reports whether the output includes a table (want(o.table, "2"))
// or figure (want(o.figure, "5b")): everything unless -table or -figure
// selects one.
func (o options) want(selected, name string) bool {
	return (o.table == "" && o.figure == "") || selected == name
}

// figure names the Figure 5 panel of a case: 5a for c1 through 5d for c4.
func figure(c engine.Case) string { return fmt.Sprintf("5%c", 'a'+rune(c-engine.C1SCOTCH)) }

// spec is the paper matrix to run: -maxv/-maxe drop networks whose
// scaled size exceeds them, and only the cases the requested output
// shows are kept.
func (o options) spec() bench.Spec {
	s := o.paper
	var nets, cases []string
	for _, name := range s.Networks {
		net, _ := netgen.ByName(name)
		if (o.maxV <= 0 || net.ScaledV(s.Scale) <= o.maxV) && (o.maxE <= 0 || int(float64(net.FullE)*s.Scale) <= o.maxE) {
			nets = append(nets, name)
		}
	}
	for _, name := range s.Cases {
		if c, err := engine.ParseCase(name); err == nil && (o.want(o.table, "2") || o.want(o.figure, figure(c))) {
			cases = append(cases, name)
		}
	}
	s.Networks, s.Cases = nets, cases
	return s
}

// run writes the requested tables and figures to w and returns the
// matrix results they were rendered from (nil when only Tables 1 and 3
// were asked for). A failed scenario is left out of the aggregates and
// fails the run once everything else is written.
func run(w io.Writer, o options) (*bench.Results, error) {
	spec := o.spec()
	if len(spec.Networks) == 0 {
		return nil, fmt.Errorf("no networks at scale %g with maxv %d maxe %d", spec.Scale, o.maxV, o.maxE)
	}
	var nets []netgen.Instance
	if o.want(o.table, "1") || o.want(o.table, "3") {
		for _, name := range spec.Networks {
			net, _ := netgen.ByName(name)
			nets = append(nets, netgen.Instance{Spec: net, G: net.Generate(spec.Scale, spec.Seed)})
		}
	}
	if o.want(o.table, "1") {
		if err := netgen.WriteTable1(w, nets); err != nil {
			return nil, err
		}
		fmt.Fprintln(w)
	}

	var res *bench.Results
	if len(spec.Cases) > 0 {
		var err error
		if res, err = bench.Run(spec, bench.RunOptions{Progress: o.progress}); err != nil {
			return nil, err
		}
		if o.want(o.table, "2") {
			if err := writeTable2(w, res); err != nil {
				return res, err
			}
			fmt.Fprintln(w)
		}
		for _, c := range engine.Cases() {
			if o.want(o.figure, figure(c)) {
				if err := writeFigure5(w, c, res); err != nil {
					return res, err
				}
				fmt.Fprintln(w)
			}
		}
		if o.csvPath != "" {
			if err := os.WriteFile(o.csvPath, instanceCSV(res), 0o644); err != nil {
				return res, err
			}
			o.progress("wrote " + o.csvPath)
		}
	}

	if o.want(o.table, "3") {
		if err := writeTable3(w, nets, spec.Epsilon, spec.Seed, o.progress); err != nil {
			return res, err
		}
		fmt.Fprintln(w)
	}
	if res != nil && res.Summary.Failed > 0 {
		return res, fmt.Errorf("%d scenarios failed", res.Summary.Failed)
	}
	return res, nil
}
