package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
)

// config is one invocation of the benchmark.
type config struct {
	workload *workload
	seed     int64
	window   time.Duration
	trace    bool
	out      string
	golden   map[string][]string
	log      io.Writer
	// tamper, when non-nil, edits every outcome before the checks run:
	// the tests inject bad results through it.
	tamper func(*outcome)
}

// system is a built system under test.
type system interface {
	// drive runs jobs of the workload's sequence from where the previous
	// call stopped until window has passed since start and at least the
	// sequence's first minJobs jobs are done; it returns every attempted
	// job once all have ended.
	drive(start time.Time, window time.Duration, minJobs int, tr *tracer) []outcome
	// snapshot reads the counters every layer exposes.
	snapshot() counters
	// engineJobs lists the job snapshots of every engine (with its
	// index among the system's engines).
	engineJobs() []nodeJob
	// workers is the total number of engine workers.
	workers() int
	close()
}

// outcome is one attempted job as the benchmark saw it.
type outcome struct {
	// index is the job's position in the workload's deterministic
	// sequence; spec is what was sent.
	index int
	spec  engine.JobSpec
	// job is the final snapshot; err a refusal or failed call.
	job engine.Job
	err error
	// sent and got bracket the job from the submitter's side: submit
	// until the result is held.
	sent, got time.Time
}

func (o *outcome) ok() bool {
	return o.err == nil && o.job.Status == engine.StatusDone && o.job.Result != nil
}

type nodeJob struct {
	node int
	job  engine.Job
}

// counters is a snapshot of every layer's cumulative counters, summed
// over the system's engines.
type counters struct {
	art        engine.ArtifactStats
	wideJobs   int64
	walRecords int64
	walBytes   int64
	dedup      int64
	failovers  int64
	served     []int64
	proc       procSnap
}

// phase is one timed run of the workload.
type phase struct {
	// start opens the window; end is the last counted completion; stop
	// is when every attempted job had ended.
	start, end, stop time.Time
	outcomes         []outcome
	// counted are the completed jobs inside the window; throughput and
	// latency are taken over them.
	counted       []*outcome
	before, after counters
	peakRSSMiB    float64
}

func (p *phase) jobsPerSecond() float64 {
	if len(p.counted) == 0 || !p.end.After(p.start) {
		return 0
	}
	return float64(len(p.counted)) / p.end.Sub(p.start).Seconds()
}

func (p *phase) latenciesMS() []float64 {
	var out []float64
	for _, o := range p.counted {
		out = append(out, ms(o.got.Sub(o.sent)))
	}
	return out
}

// measure runs one timed phase. The window ends at the deadline or,
// when the first minJobs jobs take longer, when the last of them is
// done; jobs finishing later are still checked but not counted.
func measure(sys system, window time.Duration, minJobs int, tr *tracer) *phase {
	runtime.GC()
	p := &phase{before: sys.snapshot()}
	p.start = time.Now()
	p.outcomes = sys.drive(p.start, window, minJobs, tr)
	p.stop = time.Now()
	p.after = sys.snapshot()
	p.peakRSSMiB = peakRSSMiB()

	cutoff := p.start.Add(window)
	for i := range p.outcomes {
		if o := &p.outcomes[i]; o.index < minJobs && o.got.After(cutoff) {
			cutoff = o.got
		}
	}
	for i := range p.outcomes {
		o := &p.outcomes[i]
		if o.ok() && !o.got.After(cutoff) {
			p.counted = append(p.counted, o)
			if o.got.After(p.end) {
				p.end = o.got
			}
		}
	}
	return p
}

// report is everything one invocation measured and checked.
type report struct {
	cfg       config
	setupS    float64
	main      *phase
	traced    *phase
	kernels   *kernelStats
	tr        *tracer
	nodeJobs  []nodeJob
	workers   int
	attempted int
	failures  map[int]error
	extra     int // failures not tied to one job (digest set incomplete)
	digests   []string
}

func (r *report) correct() bool { return len(r.failures) == 0 && r.extra == 0 }

func (r *report) summary() summary {
	s := summary{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    len(r.failures) + r.extra,
	}
	if r.cfg.trace {
		s.Metrics = r.layerMetrics()
	} else {
		s.Metrics = r.endToEndMetrics()
	}
	return s
}

// execute builds the system, runs the timed phase(s) and checks every
// outcome.
func execute(cfg config) (*report, error) {
	w := cfg.workload
	// setup_s is the median of several set-ups; the traced run does not
	// report it and sets up once.
	reps := 7
	var tr *tracer
	if cfg.trace {
		reps, tr = 1, newTracer()
	}
	dir, err := os.MkdirTemp(cfg.out, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &report{cfg: cfg, tr: tr, failures: map[int]error{}}
	var sys system
	var setups []float64
	for i := 0; i < reps; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		t0 := time.Now()
		sys, err = w.newSystem(cfg, filepath.Join(dir, fmt.Sprint("setup", i)), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.setupS = median(setups)
	r.workers = sys.workers()

	r.main = measure(sys, cfg.window, w.minJobs, nil)
	all := r.main.outcomes
	if cfg.trace {
		tr.on.Store(true)
		r.traced = measure(sys, cfg.window, 0, tr)
		tr.on.Store(false)
		all = append(all[:len(all):len(all)], r.traced.outcomes...)
	}
	r.nodeJobs = sys.engineJobs()
	sys.close()

	if cfg.tamper != nil {
		for i := range all {
			cfg.tamper(&all[i])
		}
	}
	r.attempted = len(all)
	r.check(all)
	if cfg.trace {
		r.kernels = runKernels(tr, cfg.seed, r.main.outcomes, w.kernelSamples, r.fail)
		tr.addEngineSpans(r.nodeJobs, r.traced.start, r.traced.stop)
		if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, cfg.seed))); err != nil {
			fmt.Fprintf(cfg.log, "perfbench: writing spans: %v\n", err)
		}
	}
	r.logFailures()
	return r, nil
}

// fail records the first failure of job index.
func (r *report) fail(index int, err error) {
	if _, seen := r.failures[index]; !seen {
		r.failures[index] = err
	}
}

func (r *report) logFailures() {
	n := 0
	for idx, err := range r.failures {
		if n++; n > 10 {
			fmt.Fprintf(r.cfg.log, "perfbench: ... and %d more failed jobs\n", len(r.failures)-10)
			break
		}
		fmt.Fprintf(r.cfg.log, "perfbench: job %d: %v\n", idx, err)
	}
}

// endToEndMetrics are the metrics a user of the system sees, taken with
// tracing off.
func (r *report) endToEndMetrics() map[string]metric {
	lat := r.main.latenciesMS()
	okShare := 0.0
	if r.attempted > 0 {
		okShare = float64(r.attempted-len(r.failures)-r.extra) / float64(r.attempted)
	}
	return map[string]metric{
		"setup_s":          {r.setupS, "s"},
		"jobs_per_s":       {r.main.jobsPerSecond(), "jobs/s"},
		"latency_p50_ms":   {quantile(lat, 0.50), "ms"},
		"latency_p95_ms":   {quantile(lat, 0.95), "ms"},
		"coco_quotient_gm": {r.cocoQuotientGM(), "ratio"},
		"peak_rss_mb":      {r.main.peakRSSMiB, "MiB"},
		"ok_share":         {okShare, "ratio"},
	}
}

// cocoQuotientGM is the geometric mean of CocoAfter/CocoBefore over the
// sequence's first minJobs jobs, which every run completes, so it is a
// function of the seed alone.
func (r *report) cocoQuotientGM() float64 {
	sum, n := 0.0, 0
	for _, o := range r.main.outcomes {
		if o.index < r.cfg.workload.minJobs && o.ok() && o.job.Result.CocoBefore > 0 {
			res := o.job.Result
			sum += math.Log(float64(res.CocoAfter) / float64(res.CocoBefore))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
