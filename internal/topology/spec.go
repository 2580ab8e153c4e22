package topology

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Spec is a parsed canonical topology specification. Specs key the
// engine's cached topologies: two textual specs that denote the
// same processor graph parse to the same canonical string, so the
// expensive partial-cube labeling is built exactly once per topology.
//
// Grammar (case-insensitive):
//
//	grid:<e1>x<e2>x...      e.g. grid:16x16, grid:8x8x8
//	torus:<e1>x<e2>x...     e.g. torus:16x16 (extents even, ≥ 4)
//	hypercube:<d>           e.g. hypercube:8 (alias hq:8)
//
// Extents are normalized to descending order with trailing unit factors
// dropped, so grid:4x8, grid:8x4 and grid:8x4x1 all share the canonical
// key "grid:8x4".
//
// The paper's five topology names ("grid16x16", "grid8x8x8",
// "torus16x16", "torus8x8x8", "8-dimHQ") are accepted as aliases.
type Spec struct {
	// Kind is one of "grid", "torus" or "hypercube".
	Kind string
	// Extents are the per-dimension extents (grid, torus) or the single
	// dimension count (hypercube).
	Extents []int
}

// paperAliases maps the paper's topology names onto canonical specs.
var paperAliases = map[string]string{
	"grid16x16":  "grid:16x16",
	"grid8x8x8":  "grid:8x8x8",
	"torus16x16": "torus:16x16",
	"torus8x8x8": "torus:8x8x8",
	"8-dimhq":    "hypercube:8",
}

// ParseSpec parses a topology specification string.
func ParseSpec(s string) (Spec, error) {
	raw := strings.ToLower(strings.TrimSpace(s))
	if alias, ok := paperAliases[raw]; ok {
		raw = alias
	}
	kind, rest, ok := strings.Cut(raw, ":")
	if !ok {
		return Spec{}, fmt.Errorf("topology: spec %q: want <kind>:<params>, e.g. grid:16x16", s)
	}
	switch kind {
	case "hq", "hypercube":
		d, err := strconv.Atoi(rest)
		if err != nil || d < 0 {
			return Spec{}, fmt.Errorf("topology: spec %q: bad hypercube dimension %q", s, rest)
		}
		return Spec{Kind: "hypercube", Extents: []int{d}}, nil
	case "grid", "torus":
		parts := strings.Split(rest, "x")
		extents := make([]int, len(parts))
		for i, p := range parts {
			e, err := strconv.Atoi(p)
			if err != nil || e < 1 {
				return Spec{}, fmt.Errorf("topology: spec %q: bad extent %q", s, p)
			}
			extents[i] = e
		}
		// Normalize so equivalent spellings share one cache key: extent
		// order is immaterial (grid:4x8 ≅ grid:8x4) and unit extents are
		// identity factors (grid:16x16x1 ≅ grid:16x16).
		sort.Sort(sort.Reverse(sort.IntSlice(extents)))
		for len(extents) > 1 && extents[len(extents)-1] == 1 {
			extents = extents[:len(extents)-1]
		}
		return Spec{Kind: kind, Extents: extents}, nil
	default:
		return Spec{}, fmt.Errorf("topology: spec %q: unknown kind %q (want grid, torus or hypercube)", s, kind)
	}
}

// PEs returns the number of processing elements the spec denotes,
// without building anything (saturating at math.MaxInt on overflow).
func (s Spec) PEs() int {
	if s.Kind == "hypercube" {
		d := 0
		if len(s.Extents) > 0 {
			d = s.Extents[0]
		}
		if d < 0 || d >= 62 {
			return math.MaxInt
		}
		return 1 << uint(d)
	}
	p := 1
	for _, e := range s.Extents {
		if e > 0 && p > math.MaxInt/e {
			return math.MaxInt
		}
		p *= e
	}
	return p
}

// String returns the canonical form of the spec: lowercase kind,
// extents joined by "x" (e.g. "grid:16x16", "hypercube:8").
func (s Spec) String() string {
	if s.Kind == "hypercube" {
		d := 0
		if len(s.Extents) > 0 {
			d = s.Extents[0]
		}
		return fmt.Sprintf("hypercube:%d", d)
	}
	parts := make([]string, len(s.Extents))
	for i, e := range s.Extents {
		parts[i] = strconv.Itoa(e)
	}
	return s.Kind + ":" + strings.Join(parts, "x")
}

// Build constructs the topology the spec denotes, with the canonical
// spec string as its name.
func (s Spec) Build() (*Topology, error) {
	var t *Topology
	var err error
	switch s.Kind {
	case "grid":
		t, err = Grid(s.Extents...)
	case "torus":
		t, err = Torus(s.Extents...)
	case "hypercube":
		if len(s.Extents) != 1 {
			return nil, fmt.Errorf("topology: spec %v: hypercube wants exactly one dimension", s)
		}
		t, err = Hypercube(s.Extents[0])
	default:
		return nil, fmt.Errorf("topology: spec %v: unknown kind %q", s, s.Kind)
	}
	if err != nil {
		return nil, err
	}
	t.Name = s.String()
	return t, nil
}

// Canonicalize parses and re-stringifies a spec, returning the canonical
// cache key for any accepted spelling ("HQ:8", "8-dimHQ" and
// "hypercube:8" all canonicalize to "hypercube:8").
func Canonicalize(spec string) (string, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return "", err
	}
	return s.String(), nil
}

// KnownSpecs lists the canonical specs of the paper's five processor
// graphs, sorted — convenient for prewarming caches.
func KnownSpecs() []string {
	out := make([]string, 0, len(paperAliases))
	for _, canon := range paperAliases {
		out = append(out, canon)
	}
	sort.Strings(out)
	return out
}
