package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"

	"repro/internal/engine"
)

// goldenJSON pins, per workload, the digest of each of the first minJobs
// job results under the default seed (see --write-golden).
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() map[string][]string {
	var g map[string][]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("perfbench: embedded golden.json is invalid: %v", err))
	}
	return g
}

// saveGolden rewrites path with workload's digests replaced.
func saveGolden(path, workload string, digests []string) error {
	g := map[string][]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for i, d := range digests {
		if d == "" {
			return fmt.Errorf("job %d has no digest; fix the run before pinning it", i)
		}
	}
	g[workload] = digests
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// digest identifies a result's deterministic quality payload.
func digest(res *engine.JobResult) string {
	data, err := json.Marshal(res.StripPerf())
	if err != nil {
		panic(fmt.Sprintf("perfbench: JobResult does not marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// checkJob verifies one outcome on its own: the job finished done and
// TIMER kept its invariants (balance unchanged, Coco never worse, at
// most NH hierarchies kept).
func checkJob(o *outcome) error {
	if o.err != nil {
		return o.err
	}
	if o.job.Status != engine.StatusDone || o.job.Result == nil {
		return fmt.Errorf("finished %q: %s", o.job.Status, o.job.Error)
	}
	res := o.job.Result
	nh := o.job.Spec.NumHierarchies
	if nh == 0 {
		nh = o.spec.NumHierarchies
	}
	switch {
	case res.ImbalanceAfter != res.ImbalanceBefore:
		return fmt.Errorf("imbalance changed from %v to %v", res.ImbalanceBefore, res.ImbalanceAfter)
	case res.CocoAfter > res.CocoBefore:
		return fmt.Errorf("coco rose from %d to %d", res.CocoBefore, res.CocoAfter)
	case res.HierarchiesKept > nh:
		return fmt.Errorf("%d hierarchies kept of NH = %d", res.HierarchiesKept, nh)
	}
	return nil
}

// check verifies every outcome, pins the first minJobs results against
// the golden digests on the default seed, and, for workloads served over
// HTTP, compares every result with an in-process engine.Run of its spec.
func (r *report) check(all []outcome) {
	w := r.cfg.workload
	r.digests = make([]string, w.minJobs)
	for i := range all {
		o := &all[i]
		if err := checkJob(o); err != nil {
			r.fail(o.index, err)
			continue
		}
		if o.index < w.minJobs {
			r.digests[o.index] = digest(o.job.Result)
		}
	}
	if r.cfg.seed == defaultSeed {
		r.checkGolden()
	}
	if w.overHTTP {
		r.checkAgainstRun(all)
	}
}

func (r *report) checkGolden() {
	golden, ok := r.cfg.golden[r.cfg.workload.name]
	if !ok {
		fmt.Fprintf(r.cfg.log, "perfbench: no golden digests for %s; pin them with --write-golden perfbench/golden.json\n", r.cfg.workload.name)
		return
	}
	if len(golden) != len(r.digests) {
		fmt.Fprintf(r.cfg.log, "perfbench: golden.json pins %d jobs, the workload has %d\n", len(golden), len(r.digests))
		r.extra++
		return
	}
	for i, d := range r.digests {
		if d != "" && d != golden[i] {
			r.fail(i, fmt.Errorf("result digest %s, golden %s", d, golden[i]))
		}
	}
}

// checkAgainstRun recomputes every distinct spec on a fresh in-process
// engine without caches and requires each served result to equal it.
func (r *report) checkAgainstRun(all []outcome) {
	ref := engine.New(engine.Options{Workers: 1, ArtifactCacheEntries: -1})
	defer ref.Close()

	type want struct {
		res *engine.JobResult
		err error
	}
	wants := map[string]*want{}
	var todo []engine.JobSpec
	for i := range all {
		if h, ok := engine.SpecHash(all[i].spec); ok && wants[h] == nil {
			wants[h] = &want{}
			todo = append(todo, all[i].spec)
		}
	}
	var wg sync.WaitGroup
	next := make(chan engine.JobSpec)
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range next {
				h, _ := engine.SpecHash(spec)
				res, err := ref.Run(spec)
				wants[h].res, wants[h].err = res, err // each goroutine owns distinct entries
			}
		}()
	}
	for _, spec := range todo {
		next <- spec
	}
	close(next)
	wg.Wait()

	for i := range all {
		o := &all[i]
		if !o.ok() {
			continue
		}
		h, ok := engine.SpecHash(o.spec)
		if !ok {
			r.fail(o.index, fmt.Errorf("spec has no canonical hash"))
			continue
		}
		wnt := wants[h]
		if wnt.err != nil {
			r.fail(o.index, fmt.Errorf("engine.Run failed where the fleet succeeded: %v", wnt.err))
			continue
		}
		if !reflect.DeepEqual(o.job.Result.StripPerf(), wnt.res.StripPerf()) {
			r.fail(o.index, fmt.Errorf("served result differs from engine.Run (coco %d, want %d)",
				o.job.Result.CocoAfter, wnt.res.CocoAfter))
		}
	}
}
