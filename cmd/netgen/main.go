// Command netgen generates the synthetic complex-network suite standing
// in for the paper's Table 1 instances and writes them as METIS files.
// Every network is generated with the -seed given, so -list describes
// exactly the graphs -all writes (and the ones cmd/experiments and
// mapbench compute on at the same scale and seed).
//
// Usage:
//
//	netgen -list                               # print the catalog
//	netgen -name p2p-Gnutella -scale 0.5 -out g.metis
//	netgen -all -scale 0.05 -dir ./networks    # whole suite
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/netgen"
)

func main() {
	var (
		list  = flag.Bool("list", false, "print the Table 1 catalog and exit")
		name  = flag.String("name", "", "generate a single network by name")
		all   = flag.Bool("all", false, "generate the whole suite")
		scale = flag.Float64("scale", 0.1, "scale in (0,1]; 1 = paper sizes")
		seed  = flag.Int64("seed", 1, "random seed")
		out   = flag.String("out", "", "output file for -name (default stdout)")
		dir   = flag.String("dir", ".", "output directory for -all")
	)
	flag.Parse()

	switch {
	case *list:
		var nets []netgen.Instance
		for _, spec := range netgen.Catalog() {
			nets = append(nets, netgen.Instance{Spec: spec, G: spec.Generate(*scale, *seed)})
		}
		if err := netgen.WriteTable1(os.Stdout, nets); err != nil {
			fatal(err)
		}
	case *name != "":
		spec, err := netgen.ByName(*name)
		if err != nil {
			fatal(err)
		}
		g := spec.Generate(*scale, *seed)
		fmt.Fprintf(os.Stderr, "%s at scale %g: n=%d m=%d\n", spec.Name, *scale, g.N(), g.M())
		if *out == "" {
			if err := g.WriteMETIS(os.Stdout); err != nil {
				fatal(err)
			}
		} else if err := g.WriteMETISFile(*out); err != nil {
			fatal(err)
		}
	case *all:
		for _, spec := range netgen.Catalog() {
			g := spec.Generate(*scale, *seed)
			path := filepath.Join(*dir, spec.Name+".metis")
			if err := g.WriteMETISFile(path); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (n=%d m=%d)\n", path, g.N(), g.M())
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netgen:", err)
	os.Exit(1)
}
