package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/mapclient"
	"repro/internal/mapdsrv"
)

// A probe proves that one perturbation of how a job set runs leaves
// TIMER's output unchanged: the set runs once as a reference and once
// perturbed, the two result sets must agree after StripPerf, and the
// probe records what the perturbation cost or saved in its perf.*
// columns. The shared steps live on the driver; a probe holds only
// what makes it different (see probes.go).
type probe struct {
	// name is the probe's mapbench switch (-wide, -warm, ...).
	name string
	// jobs builds the probe's job set from the -seed value.
	jobs func(seed int64) []engine.JobSpec
	// run applies the perturbation to specs, asserts the results and the
	// probe's own invariants, and writes the probe's perf columns.
	run func(d *driver, specs []engine.JobSpec, perf *bench.RunPerf) error
}

// runProbe runs one probe with the -workers and -seed values (0 picks
// GOMAXPROCS and 1) and records its columns in perf.
func runProbe(p probe, workers int, seed int64, progress func(string), perf *bench.RunPerf) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if seed == 0 {
		seed = 1
	}
	d := &driver{name: p.name, workers: workers, progress: progress}
	return p.run(d, p.jobs(seed), perf)
}

// driver carries one probe's settings and implements the steps every
// probe shares. Every error it returns names the probe.
type driver struct {
	name     string
	workers  int
	progress func(string)
}

// fail formats an error that names the probe.
func (d *driver) fail(format string, args ...any) error {
	return fmt.Errorf("%s probe: "+format, append([]any{d.name}, args...)...)
}

// logf emits one progress line that names the probe.
func (d *driver) logf(format string, args ...any) {
	if d.progress != nil {
		d.progress(fmt.Sprintf("%s probe: "+format, append([]any{d.name}, args...)...))
	}
}

// jobAPI is the submit/wait pair a job set runs through: an engine
// directly, or a mapd replica or maprouter over HTTP.
type jobAPI struct {
	submit func(engine.JobSpec) (engine.Job, error)
	wait   func(id string) (engine.Job, error)
}

func engineAPI(eng *engine.Engine) jobAPI { return jobAPI{submit: eng.Submit, wait: eng.Wait} }

func clientAPI(c *mapclient.Client) jobAPI {
	ctx := context.Background()
	return jobAPI{
		submit: func(s engine.JobSpec) (engine.Job, error) { return c.SubmitJob(ctx, s) },
		wait:   func(id string) (engine.Job, error) { return c.WaitJob(ctx, id) },
	}
}

// reference computes the job set's expected results with Engine.Run:
// sequential, on the calling goroutine, with no queue, ledger or HTTP.
func (d *driver) reference(eng *engine.Engine, specs []engine.JobSpec) ([]engine.JobResult, error) {
	out := make([]engine.JobResult, len(specs))
	for i, spec := range specs {
		res, err := eng.Run(spec)
		if err != nil {
			return nil, d.fail("reference job %d: %w", i, err)
		}
		out[i] = *res
	}
	return out, nil
}

// submitAll submits every spec and returns the job IDs in spec order.
func (d *driver) submitAll(api jobAPI, specs []engine.JobSpec) ([]string, error) {
	ids := make([]string, len(specs))
	for i, spec := range specs {
		job, err := api.submit(spec)
		if err != nil {
			return nil, d.fail("submit job %d: %w", i, err)
		}
		ids[i] = job.ID
	}
	return ids, nil
}

// waitAll waits for every job and returns the results in ID order; a
// job that finishes anything but done fails the probe.
func (d *driver) waitAll(api jobAPI, ids []string) ([]engine.JobResult, error) {
	out := make([]engine.JobResult, len(ids))
	for i, id := range ids {
		job, err := api.wait(id)
		if err != nil {
			return nil, d.fail("wait job %d (%s): %w", i, id, err)
		}
		if job.Status != engine.StatusDone || job.Result == nil {
			return nil, d.fail("job %d (%s) finished %s: %s", i, id, job.Status, job.Error)
		}
		out[i] = *job.Result
	}
	return out, nil
}

// runJobs submits the whole set, then waits for all of it.
func (d *driver) runJobs(api jobAPI, specs []engine.JobSpec) ([]engine.JobResult, error) {
	ids, err := d.submitAll(api, specs)
	if err != nil {
		return nil, err
	}
	return d.waitAll(api, ids)
}

// same requires got to equal want job by job once performance fields
// are stripped: a perturbation that changed an answer is a failure,
// whatever it did to the wall clock.
func (d *driver) same(want, got []engine.JobResult) error {
	if len(got) != len(want) {
		return d.fail("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i].StripPerf(), got[i].StripPerf()) {
			return d.fail("job %d (%s) differs from the reference after StripPerf (coco %d, want %d)",
				i, want[i].Topology, got[i].CocoAfter, want[i].CocoAfter)
		}
	}
	return nil
}

// tempDir creates a probe-owned directory; the returned func removes it.
func (d *driver) tempDir() (string, func(), error) {
	dir, err := os.MkdirTemp("", "mapbench-"+d.name+"-*")
	if err != nil {
		return "", nil, d.fail("%w", err)
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// probeFleet is n in-process mapd replicas — each an engine behind the
// production mapdsrv handler on a loopback listener — behind a
// maprouter on its own listener. api reaches the router.
type probeFleet struct {
	engines   []*engine.Engine
	replicas  []*http.Server
	urls      []string // replica base URLs, index-aligned with replicas
	router    *fleet.Router
	routerSrv *http.Server
	api       jobAPI
}

// startFleet stands up a fleet of n replicas with the given per-replica
// worker count and waits until the router answers.
func (d *driver) startFleet(n, workers int) (f *probeFleet, err error) {
	f = &probeFleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	for i := 0; i < n; i++ {
		eng := engine.New(engine.Options{Workers: workers})
		f.engines = append(f.engines, eng)
		srv, url, err := serve(mapdsrv.New(eng, mapdsrv.Config{}))
		if err != nil {
			return nil, d.fail("replica listen: %w", err)
		}
		f.replicas = append(f.replicas, srv)
		f.urls = append(f.urls, url)
	}
	f.router, err = fleet.NewRouter(fleet.Config{
		Replicas:      f.urls,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
	})
	if err != nil {
		return nil, d.fail("%w", err)
	}
	var url string
	if f.routerSrv, url, err = serve(f.router.Handler()); err != nil {
		return nil, d.fail("router listen: %w", err)
	}
	c := mapclient.New(url, mapclient.Config{AttemptTimeout: 5 * time.Minute})
	// Give the health probers their first verdicts before anything runs.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := c.Stats(context.Background()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, d.fail("router never became reachable")
		}
	}
	f.api = clientAPI(c)
	return f, nil
}

// kill closes the replica at url and every open connection to it: the
// in-process stand-in for kill -9.
func (f *probeFleet) kill(url string) {
	for i, u := range f.urls {
		if u == url {
			f.replicas[i].Close()
		}
	}
}

func (f *probeFleet) close() {
	if f.routerSrv != nil {
		f.routerSrv.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, srv := range f.replicas {
		srv.Close()
	}
	for _, eng := range f.engines {
		eng.Close()
	}
}

// serve runs h on a fresh loopback listener and returns its base URL.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}
