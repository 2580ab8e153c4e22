package core

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/topology"
)

// TestWideEquivalence pins the wide-mode contract at the core layer: an
// Enhance run with Options.Spawn set is byte-identical — labels,
// mapping, and every diagnostic counter — to the sequential run, for
// every acceptance pattern of the Spawn hook.
func TestWideEquivalence(t *testing.T) {
	cases := []struct {
		name string
		n, m int
		spec string
		nh   int
	}{
		{"rand256/grid4x4", 256, 800, "grid:4x4", 24},
		{"rand512/hypercube4", 512, 1600, "hypercube:4", 24},
		{"rand320/torus4x4", 320, 1000, "torus:4x4", 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := mustTopo(t, tc.spec)
			ga := randomGraph(tc.n, tc.m, 11)
			assign := balancedAssign(tc.n, topo.P(), 13)
			opt := Options{NumHierarchies: tc.nh, Seed: 7}
			seq, err := Enhance(ga, topo, assign, opt)
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			spawners := map[string]func(func()) bool{
				"always": func(fn func()) bool {
					wg.Add(1)
					go func() { defer wg.Done(); fn() }()
					return true
				},
				"never": func(fn func()) bool { return false },
			}
			var calls atomic.Int64
			spawners["alternate"] = func(fn func()) bool {
				if calls.Add(1)%2 == 0 {
					return false
				}
				wg.Add(1)
				go func() { defer wg.Done(); fn() }()
				return true
			}
			for sname, spawn := range spawners {
				wopt := opt
				wopt.Spawn = spawn
				wide, err := Enhance(ga, topo, assign, wopt)
				wg.Wait()
				if err != nil {
					t.Fatalf("%s: %v", sname, err)
				}
				if !reflect.DeepEqual(seq.Assign, wide.Assign) {
					t.Errorf("%s: wide mapping differs from sequential", sname)
				}
				if seq.CocoAfter != wide.CocoAfter || seq.CocoPlusAfter != wide.CocoPlusAfter {
					t.Errorf("%s: objectives differ: coco %d vs %d, coco+ %d vs %d",
						sname, seq.CocoAfter, wide.CocoAfter, seq.CocoPlusAfter, wide.CocoPlusAfter)
				}
				if seq.HierarchiesKept != wide.HierarchiesKept ||
					seq.SwapsApplied != wide.SwapsApplied ||
					seq.SwapGain != wide.SwapGain ||
					seq.Repairs != wide.Repairs {
					t.Errorf("%s: counters differ: kept %d/%d swaps %d/%d gain %d/%d repairs %d/%d",
						sname, seq.HierarchiesKept, wide.HierarchiesKept,
						seq.SwapsApplied, wide.SwapsApplied,
						seq.SwapGain, wide.SwapGain, seq.Repairs, wide.Repairs)
				}
				if !reflect.DeepEqual(seq.Labeling.Labels, wide.Labeling.Labels) {
					t.Errorf("%s: final labels differ", sname)
				}
			}
		})
	}
}

// TestWideAllocationBoundedByWidth: wide mode allocates per granted
// slot, not per hierarchy. With a Spawn that always declines, no helper
// runs, and the bytes one Enhance call allocates do not grow with
// NumHierarchies.
func TestWideAllocationBoundedByWidth(t *testing.T) {
	topo := mustTopo(t, "grid:4x4")
	ga := randomGraph(64, 128, 3)
	assign := balancedAssign(64, topo.P(), 5)
	sc := NewScratch()
	allocated := func(nh int) uint64 {
		opt := Options{NumHierarchies: nh, Seed: 7, Scratch: sc,
			Spawn: func(func()) bool { return false }}
		if _, err := Enhance(ga, topo, assign, opt); err != nil { // warm sc
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Enhance(ga, topo, assign, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(4), allocated(4096)
	if large > small+16<<10 {
		t.Errorf("Enhance allocates %d B at NH = 4096 vs %d B at NH = 4: allocation grows with NH",
			large, small)
	}
}

func mustTopo(t *testing.T, spec string) *topology.Topology {
	t.Helper()
	s, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}
