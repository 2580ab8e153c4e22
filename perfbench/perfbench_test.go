package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyRun runs one workload with a near-zero window: only the jobs every
// run must complete (the golden set) are attempted.
func tinyRun(t *testing.T, name string, trace bool, tamper func(*outcome)) *report {
	t.Helper()
	var log bytes.Buffer
	rep, err := execute(config{
		workload: workloads[name],
		seed:     defaultSeed,
		window:   time.Millisecond,
		trace:    trace,
		out:      t.TempDir(),
		golden:   loadGolden(),
		log:      &log,
		tamper:   tamper,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, log.String())
	}
	return rep
}

func TestTinyRunsPass(t *testing.T) {
	for _, name := range []string{"paper-enhance", "fresh-partition", "serve-small"} {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			rep := tinyRun(t, name, false, nil)
			s := rep.summary()
			if !s.Correct || s.Failed != 0 || s.Attempted < workloads[name].minJobs {
				t.Fatalf("correct %v, %d of %d failed: %v", s.Correct, s.Failed, s.Attempted, rep.failures)
			}
			for _, d := range rep.digests {
				if d == "" {
					t.Fatalf("a golden job has no digest: %v", rep.digests)
				}
			}
			if s.Metrics["jobs_per_s"].Value <= 0 || s.Metrics["setup_s"].Value <= 0 {
				t.Fatalf("zero metric in %v", s.Metrics)
			}
			t.Logf("%s: %d jobs in %v", name, s.Attempted, time.Since(start).Round(time.Millisecond))
		})
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name+" "+m.Unit)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func printed(m map[string]metric) []string {
	var out []string
	for n, v := range m {
		out = append(out, n+" "+v.Unit)
	}
	sort.Strings(out)
	return out
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	rep := tinyRun(t, "serve-small", true, nil)
	if got := printed(rep.endToEndMetrics()); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end-to-end metrics\n got %v\nwant %v", got, endToEnd)
	}
	if got := printed(rep.layerMetrics()); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per-layer metrics\n got %v\nwant %v", got, perLayer)
	}
	if !rep.correct() {
		t.Errorf("traced run failed: %v", rep.failures)
	}
	// The traced run sees every layer of the serving path.
	m := rep.layerMetrics()
	for _, n := range []string{"mapclient.submit_ms_p50", "fleet.self_ms_p50", "mapdsrv.self_ms_p50", "core.enhance_ms", "stage.enhance_ms"} {
		if m[n].Value <= 0 {
			t.Errorf("%s = %v on serve-small, want > 0", n, m[n].Value)
		}
	}
}

func TestInjectedBadResultsFail(t *testing.T) {
	// Job 3 breaks a TIMER invariant; job 5 keeps the invariants but
	// differs from the golden digest and from engine.Run.
	rep := tinyRun(t, "serve-small", false, func(o *outcome) {
		if !o.ok() || (o.index != 3 && o.index != 5) {
			return
		}
		res := *o.job.Result
		if o.index == 3 {
			res.CocoAfter = res.CocoBefore + 1
		} else {
			res.SwapsApplied++
		}
		o.job.Result = &res
	})
	s := rep.summary()
	if s.Correct || s.Failed != 2 {
		t.Fatalf("correct %v with %d failed, want 2 failed: %v", s.Correct, s.Failed, rep.failures)
	}
	for _, idx := range []int{3, 5} {
		if rep.failures[idx] == nil {
			t.Errorf("job %d not counted as failed: %v", idx, rep.failures)
		}
	}
	if got := s.Metrics["ok_share"].Value; got >= 1 {
		t.Errorf("ok_share %v with failures", got)
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-small", "--trace", "2"},
		{"--workload", "serve-small", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("%v printed a result: %s", args, stdout.String())
		}
	}
}

func TestUncovered(t *testing.T) {
	iv := interval{0, 10e6}
	cases := []struct {
		cover []interval
		want  float64
	}{
		{nil, 10},
		{[]interval{{2e6, 4e6}}, 8},
		{[]interval{{2e6, 4e6}, {3e6, 6e6}}, 6},
		{[]interval{{-5e6, 20e6}}, 0},
		{[]interval{{8e6, 12e6}, {0, 1e6}}, 7},
	}
	for _, c := range cases {
		if got := iv.uncovered(c.cover); got != c.want {
			t.Errorf("uncovered(%v) = %v, want %v", c.cover, got, c.want)
		}
	}
}
