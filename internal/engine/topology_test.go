package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/topology"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewArtifactCache(0, 0)
	t1, err := c.Topology("grid:4x4")
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("after first lookup: hits=%d misses=%d, want 0/1", st.Hits, st.Misses)
	}
	// Same topology under a different spelling must hit the same entry.
	t2, err := c.Topology("GRID:4x4")
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("cache returned distinct topologies for equivalent specs")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("after second lookup: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	// A different spec is a new miss.
	if _, err := c.Topology("hypercube:3"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("after third lookup: hits=%d misses=%d, want 1/2", st.Hits, st.Misses)
	}

	snap := c.Topologies()
	if len(snap) != 2 {
		t.Fatalf("Topologies has %d entries, want 2", len(snap))
	}
	if snap[0].Spec != "grid:4x4" || snap[1].Spec != "hypercube:3" {
		t.Errorf("Topologies not sorted by spec: %+v", snap)
	}
	if snap[0].Hits != 1 || snap[0].PEs != 16 {
		t.Errorf("grid entry: %+v, want 1 hit, 16 PEs", snap[0])
	}
}

func TestCacheBadSpec(t *testing.T) {
	c := NewArtifactCache(0, 0)
	if _, err := c.Topology("nonsense"); err == nil {
		t.Fatal("bad spec succeeded")
	}
	if _, err := c.Topology("hypercube:20"); err == nil {
		t.Fatal("spec over the serving limit succeeded")
	}
	if st := c.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Errorf("rejected specs left cache state behind: %+v", st)
	}
	// A spec that parses but cannot build leaves a failed entry behind.
	if _, err := c.Topology("torus:5x5"); err == nil {
		t.Fatal("odd torus succeeded")
	}
	if _, err := c.Topology("torus:5x5"); err == nil {
		t.Fatal("odd torus succeeded on cached retry")
	}
	if st := c.Stats(); st.Misses != 1 || st.ErrorHits != 1 {
		t.Errorf("odd torus: misses=%d error_hits=%d, want one build and one cached error", st.Misses, st.ErrorHits)
	}
	snap := c.Topologies()
	if len(snap) != 1 || !snap[0].Failed || snap[0].Hits != 1 {
		t.Errorf("Topologies = %+v, want one failed entry with one hit", snap)
	}
}

func TestCacheConcurrentFirstUseBuildsOnce(t *testing.T) {
	c := NewArtifactCache(0, 0)
	const n = 16
	topos := make([]*topology.Topology, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			topo, err := c.Topology("grid:8x8")
			if err != nil {
				t.Error(err)
				return
			}
			topos[i] = topo
			c.Topologies() // listing races with lookups and the build
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if topos[i] != topos[0] {
			t.Fatal("concurrent first use produced distinct topology objects")
		}
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want exactly one build", st.Misses)
	}
}

// TestPrewarm resolves a spec list the way mapd's -prewarm does: a bad
// spec is reported, not fatal, and creates no entry.
func TestPrewarm(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	var errs []error
	for _, spec := range []string{"grid:4x4", "bogus", "hypercube:2"} {
		if _, err := e.Topology(spec); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) != 1 {
		t.Fatalf("prewarm errors = %v, want exactly one", errs)
	}
	// "bogus" never canonicalizes, so only the two buildable specs
	// create entries.
	if st := e.Stats().Artifacts; st.Misses != 2 || len(e.Artifacts().Topologies()) != 2 {
		t.Errorf("misses = %d, topologies = %+v, want 2 entries", st.Misses, e.Artifacts().Topologies())
	}
}

// TestTopologiesCountAgainstByteBound resolves many distinct large
// grids, each pinning a multi-megabyte distance table, and checks the
// cache's byte bound holds them in check instead of letting distinct
// spec strings pin memory without limit.
func TestTopologiesCountAgainstByteBound(t *testing.T) {
	const capBytes = 32 << 20
	e := New(Options{Workers: 1, ArtifactCacheBytes: capBytes})
	defer e.Close()
	// Distinct canonical 3-D grids a×b×c (a ≥ 16 ≥ b ≥ c) of 2,900 to
	// 4,096 PEs; each carries a distance table of 8 MiB or more.
	built := 0
	for a := 16; built < 40; a++ {
		for b := 12; b <= 16 && built < 40; b++ {
			for c := 12; c <= b && built < 40; c++ {
				if p := a * b * c; p < 2900 || p > 4096 {
					continue
				}
				if _, err := e.Topology(fmt.Sprintf("grid:%dx%dx%d", a, b, c)); err != nil {
					t.Fatal(err)
				}
				built++
			}
		}
	}
	st := e.Stats().Artifacts
	if st.Bytes > capBytes || st.Evictions == 0 {
		t.Errorf("after %d large topologies: bytes=%d evictions=%d, want ≤ %d bytes and evictions", built, st.Bytes, st.Evictions, capBytes)
	}
}

// TestTopologyWithCacheDisabled checks an engine without an artifact
// cache still resolves topologies, building each lookup afresh.
func TestTopologyWithCacheDisabled(t *testing.T) {
	e := New(Options{Workers: 1, ArtifactCacheEntries: -1})
	defer e.Close()
	t1, err := e.Topology("grid:4x4")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.Topology("grid:4x4")
	if err != nil {
		t.Fatal(err)
	}
	if t1 == t2 || t1.P() != 16 {
		t.Errorf("disabled cache: got %s twice as one object (%v), want two 16-PE builds", t1.Name, t1 == t2)
	}
	if _, err := e.Topology("torus:5x5"); err == nil {
		t.Error("odd torus succeeded without a cache")
	}
	if e.Artifacts().Topologies() != nil {
		t.Error("disabled cache lists topologies")
	}
}

// FuzzTopologySpec feeds arbitrary spec strings through the topology
// kind of a small byte-bounded cache: no input may panic, exceed the
// serving limit, or push the cache past its byte bound.
func FuzzTopologySpec(f *testing.F) {
	for _, s := range topology.KnownSpecs() {
		f.Add(s)
	}
	for _, s := range []string{
		"", "grid", "grid:", "grid:x", "grid:0", "grid:-4", "grid:1", "grid:4x",
		"GRID16X16", "torus:5x5", "torus:2x2", "torus:4x4x4x4x4x4x4x4",
		"hypercube:-1", "hq:16", "hypercube:17", "hypercube:99999999999999999999",
		"grid:65x1", "grid:2x2x2x2x2x2x2x2x2x2x2x2x2x2x2x2x2",
		"grid:9223372036854775807x2", "tree:4", "grid:16:16",
	} {
		f.Add(s)
	}
	const capBytes = 4 << 20
	c := NewArtifactCache(16, capBytes)
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := c.Topology(spec)
		if err == nil && topo.P() > maxCachePEs {
			t.Fatalf("%q: built %d PEs, over the serving limit of %d", spec, topo.P(), maxCachePEs)
		}
		if st := c.Stats(); st.Bytes > capBytes {
			t.Fatalf("%q: cache holds %d bytes, over its cap of %d", spec, st.Bytes, capBytes)
		}
	})
}
