package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
)

// TestProbes runs every probe end to end. Each probe fails on its own
// when its perturbation changes a result or breaks one of its
// invariants, so a passing run is the proof; the test checks that each
// probe recorded its perf columns.
func TestProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("the probes run their job sets several times; skipped in -short")
	}
	columns := map[string]func(p *bench.RunPerf) map[string]float64{
		"wide": func(p *bench.RunPerf) map[string]float64 {
			return map[string]float64{"wide_speedup": p.WideSpeedup, "wide_width": float64(p.WideWidth)}
		},
		"warm": func(p *bench.RunPerf) map[string]float64 {
			return map[string]float64{"warm_speedup": p.WarmSpeedup, "disk_hit_rate": p.DiskHitRate}
		},
		"restart": func(p *bench.RunPerf) map[string]float64 {
			return map[string]float64{"jobs_recovered": float64(p.JobsRecovered), "dedup_served": float64(p.DedupServed)}
		},
		"fleet": func(p *bench.RunPerf) map[string]float64 {
			return map[string]float64{"fleet_speedup": p.FleetSpeedup, "failovers": float64(p.Failovers)}
		},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			var perf bench.RunPerf
			var lines []string
			if err := runProbe(p, 2, 1, func(l string) { lines = append(lines, l) }, &perf); err != nil {
				t.Fatal(err)
			}
			cols := columns[p.name]
			if cols == nil {
				t.Fatalf("no columns listed for probe %q", p.name)
			}
			for name, v := range cols(&perf) {
				if v <= 0 {
					t.Errorf("perf.%s = %v, want > 0", name, v)
				}
			}
			if len(lines) == 0 || !strings.HasPrefix(lines[0], p.name+" probe: ") {
				t.Errorf("progress lines %q do not name the probe", lines)
			}
		})
	}
}

// TestSameNamesProbeAndJob is the negative test of the shared equality
// check: one differing quality field fails it with an error naming the
// probe and the job, while perf-only differences pass.
func TestSameNamesProbeAndJob(t *testing.T) {
	d := &driver{name: "warm"}
	want := []engine.JobResult{
		{Topology: "grid:8x8", CocoAfter: 10},
		{Topology: "grid:8x8", CocoAfter: 20},
		{Topology: "hypercube:6", CocoAfter: 30},
	}
	got := append([]engine.JobResult(nil), want...)
	got[1].TimerSeconds, got[1].Width, got[1].ServedFromLedger = 1.5, 2, true
	if err := d.same(want, got); err != nil {
		t.Fatalf("perf-only difference failed the check: %v", err)
	}

	got[1].CutAfter = 7
	err := d.same(want, got)
	if err == nil {
		t.Fatal("a differing CutAfter passed the check")
	}
	for _, frag := range []string{"warm probe", "job 1"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not contain %q", err, frag)
		}
	}
	if err := d.same(want, got[:2]); err == nil {
		t.Error("a short result set passed the check")
	}
}
