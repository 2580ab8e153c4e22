package netgen

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/graph"
)

// NetworkSpec describes one of the paper's Table 1 instances and the
// synthetic model standing in for it.
type NetworkSpec struct {
	// Name is the paper's instance name.
	Name string
	// Type is the paper's description column.
	Type string
	// FullV and FullE are the vertex/edge counts reported in Table 1.
	FullV, FullE int
	// Model is the generator family used as the stand-in.
	Model Model
}

// Catalog returns the 15 complex networks of the paper's Table 1 in its
// order, each tagged with the synthetic model used to reproduce its
// shape (see DESIGN.md for the substitution rationale).
func Catalog() []NetworkSpec {
	return []NetworkSpec{
		{"p2p-Gnutella", "file-sharing network", 6405, 29215, RMAT},
		{"PGPgiantcompo", "largest connected component in network of PGP users", 10680, 24316, BA},
		{"email-EuAll", "network of connections via email", 16805, 60260, RMAT},
		{"as-22july06", "network of internet routers", 22963, 48436, BA},
		{"soc-Slashdot0902", "news network", 28550, 379445, RMAT},
		{"loc-brightkite_edges", "location-based friendship network", 56739, 212945, GEO},
		{"loc-gowalla_edges", "location-based friendship network", 196591, 950327, GEO},
		{"citationCiteseer", "citation network", 268495, 1156647, RMAT},
		{"coAuthorsCiteseer", "citation network", 227320, 814134, WS},
		{"wiki-Talk", "network of user interactions through edits", 232314, 1458806, RMAT},
		{"coAuthorsDBLP", "citation network", 299067, 977676, WS},
		{"web-Google", "hyperlink network of web pages", 356648, 2093324, RMAT},
		{"coPapersCiteseer", "citation network", 434102, 16036720, WS},
		{"coPapersDBLP", "citation network", 540486, 15245729, WS},
		{"as-skitter", "network of internet service providers", 554930, 5797663, BA},
	}
}

// ByName returns the catalog entry with the given name.
func ByName(name string) (NetworkSpec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return NetworkSpec{}, fmt.Errorf("netgen: unknown network %q", name)
}

// Generate builds the stand-in instance at the given scale ∈ (0, 1]:
// vertex and edge targets are FullV·scale and FullE·scale. Scale 1
// reproduces Table 1's sizes; the experiment harness defaults to a
// smaller scale so the whole suite runs in CI time (the quotients the
// paper reports are size-relative, see DESIGN.md).
func (s NetworkSpec) Generate(scale float64, seed int64) *graph.Graph {
	n := s.ScaledV(scale)
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	m := int(float64(s.FullE) * scale)
	if m < n {
		m = n
	}
	return Generate(s.Model, n, m, seed)
}

// ScaledV returns the vertex-count target Generate uses at the given
// scale (clamps and the 64-vertex floor included), so callers like the
// bench matrix expansion can predict whether a scaled instance
// outsizes a topology without generating it. The realized count can
// come out slightly lower because Generate keeps only the largest
// connected component — decisions that must be exact need the
// generated graph's N.
func (s NetworkSpec) ScaledV(scale float64) int {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	n := int(float64(s.FullV) * scale)
	if n < 64 {
		n = 64
	}
	return n
}

// Instance is a generated network with its provenance.
type Instance struct {
	Spec NetworkSpec
	G    *graph.Graph
}

// WriteTable1 prints the network suite in the layout of the paper's
// Table 1, annotated with the generated stand-in sizes.
func WriteTable1(w io.Writer, nets []Instance) error {
	fmt.Fprintln(w, "Table 1: Complex networks used for benchmarking.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Name\tpaper #vertices\tpaper #edges\tgenerated #v\tgenerated #e\tmodel\tType")
	for _, n := range nets {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%s\t%s\n",
			n.Spec.Name, n.Spec.FullV, n.Spec.FullE, n.G.N(), n.G.M(), n.Spec.Model, n.Spec.Type)
	}
	return tw.Flush()
}
