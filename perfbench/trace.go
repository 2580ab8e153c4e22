package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Span layers. Every span is recorded by the benchmark's own code at a
// boundary it owns: around client calls, in http.Handler wrappers around
// the router and the replicas, from engine job timestamps and stage
// timings, and around direct kernel calls.
const (
	layerClientSubmit = "mapclient.submit"
	layerClientWait   = "mapclient.wait"
	layerRouter       = "fleet"
	layerReplica      = "mapdsrv"
	layerQueue        = "engine.queue"
	layerRun          = "engine.run"
)

// span is one timed interval. Spans of one request share Trace, the
// canonical hash of the job spec; ID is the job's identifier at the
// span's layer (router and replica IDs differ).
type span struct {
	Layer  string `json:"layer"`
	Trace  string `json:"trace,omitempty"`
	ID     string `json:"id,omitempty"`
	Node   int    `json:"node"`
	Method string `json:"method,omitempty"`
	Path   string `json:"path,omitempty"`
	Status int    `json:"status,omitempty"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory while on is set; write saves them.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// clientSpan records one mapclient call; a nil or idle tracer ignores it.
func (t *tracer) clientSpan(layer string, spec engine.JobSpec, id string, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	h, _ := engine.SpecHash(spec)
	t.add(span{Layer: layer, Trace: h, ID: id, Start: t.at(start), End: t.at(end)})
}

// handler wraps an HTTP surface so that every request served while the
// tracer is on becomes a span. A job submission's span carries the spec
// hash of its body and the job ID of its response, a job fetch's the ID
// in its path; both are extracted after the span has ended.
func (t *tracer) handler(next http.Handler, layer string, node int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		submit := r.Method == http.MethodPost && r.URL.Path == "/v1/jobs"
		var body []byte
		if submit {
			// A failed read leaves a short body, which the wrapped
			// handler then rejects as it would have anyway.
			body, _ = io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		rw := &recorder{ResponseWriter: w, status: http.StatusOK, keep: submit}
		next.ServeHTTP(rw, r)
		end := time.Now()

		s := span{Layer: layer, Node: node, Method: r.Method, Path: r.URL.Path, Status: rw.status,
			Start: t.at(start), End: t.at(end)}
		if submit {
			var spec engine.JobSpec
			if json.Unmarshal(body, &spec) == nil {
				s.Trace, _ = engine.SpecHash(spec)
			}
			var job engine.Job
			if json.Unmarshal(rw.body.Bytes(), &job) == nil {
				s.ID = job.ID
			}
		} else if id, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/"); ok {
			s.ID = id
		}
		t.add(s)
	})
}

// recorder captures a response's status and, when keep is set, its body.
type recorder struct {
	http.ResponseWriter
	status int
	keep   bool
	body   bytes.Buffer
}

func (r *recorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.keep {
		r.body.Write(p)
	}
	return r.ResponseWriter.Write(p)
}

func (r *recorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// addEngineSpans turns the engine job snapshots submitted within
// [from, to] into queue, run and stage spans. Stages are laid end to
// end from the job's start, as the pipeline runs them back to back.
func (t *tracer) addEngineSpans(jobs []nodeJob, from, to time.Time) {
	for _, nj := range jobs {
		j := nj.job
		if !inWindow(j, from, to) || j.Started.IsZero() || j.Finished.IsZero() {
			continue
		}
		h, _ := engine.SpecHash(j.Spec)
		t.add(span{Layer: layerQueue, Trace: h, ID: j.ID, Node: nj.node, Start: t.at(j.Submitted), End: t.at(j.Started)})
		t.add(span{Layer: layerRun, Trace: h, ID: j.ID, Node: nj.node, Start: t.at(j.Started), End: t.at(j.Finished)})
		if j.Result == nil {
			continue
		}
		at := t.at(j.Started)
		for _, st := range j.Result.Stages {
			d := int64(st.Seconds * 1e9)
			t.add(span{Layer: "stage." + st.Name, Trace: h, ID: j.ID, Node: nj.node, Start: at, End: at + d})
			at += d
		}
	}
}

func inWindow(j engine.Job, from, to time.Time) bool {
	return !j.Submitted.Before(from) && !j.Submitted.After(to)
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSpans returns the recorded spans of one layer.
func (t *tracer) layerSpans(layer string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Layer == layer {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes derives the router's and the replicas' per-request self
// time: a span's duration minus the part of it its child spans cover.
// A router span's children are the replica requests it made for the
// same job (matched by spec hash for submissions and by the replica
// job ID the submission returned for fetches). A replica span's child
// is the engine's execution of the job, from submission to finish.
func (t *tracer) selfTimes(jobs []nodeJob) (routerSelf, replicaSelf []float64) {
	type key struct {
		node int
		id   string
	}
	engineJob := map[key]engine.Job{}
	for _, nj := range jobs {
		engineJob[key{nj.node, nj.job.ID}] = nj.job
	}
	replicaSubmits := map[string][]span{}
	replicaFetches := map[string][]span{}
	for _, s := range t.layerSpans(layerReplica) {
		if !strings.HasPrefix(s.Path, "/v1/jobs") {
			continue // health probes
		}
		var cover []interval
		if j, ok := engineJob[key{s.Node, s.ID}]; ok && s.Method == http.MethodGet && !j.Finished.IsZero() {
			cover = []interval{{t.at(j.Submitted), t.at(j.Finished)}}
		}
		replicaSelf = append(replicaSelf, interval{s.Start, s.End}.uncovered(cover))
		if s.Method == http.MethodPost {
			replicaSubmits[s.Trace] = append(replicaSubmits[s.Trace], s)
		} else {
			replicaFetches[s.ID] = append(replicaFetches[s.ID], s)
		}
	}

	routers := t.layerSpans(layerRouter)
	remote := map[string][]span{} // router job ID -> replica submit span
	selfOf := func(r span, kids []span) {
		var cover []interval
		for _, k := range kids {
			if k.Start >= r.Start && k.End <= r.End {
				cover = append(cover, interval{k.Start, k.End})
			}
		}
		routerSelf = append(routerSelf, interval{r.Start, r.End}.uncovered(cover))
	}
	for _, r := range routers {
		if r.Method == http.MethodPost && r.Path == "/v1/jobs" {
			var kids []span
			for _, k := range replicaSubmits[r.Trace] {
				if k.Start >= r.Start && k.End <= r.End {
					kids = append(kids, k)
				}
			}
			remote[r.ID] = kids
			selfOf(r, kids)
		}
	}
	for _, r := range routers {
		if r.Method == http.MethodGet && strings.HasPrefix(r.Path, "/v1/jobs/") {
			var kids []span
			for _, sub := range remote[r.ID] {
				for _, k := range replicaFetches[sub.ID] {
					if k.Node == sub.Node {
						kids = append(kids, k)
					}
				}
			}
			selfOf(r, kids)
		}
	}
	return routerSelf, replicaSelf
}

// interval is a half-open span of nanoseconds.
type interval struct{ lo, hi int64 }

// uncovered returns how much of iv no interval of cover overlaps, in
// milliseconds; overlapping cover counts once.
func (iv interval) uncovered(cover []interval) float64 {
	sort.Slice(cover, func(a, b int) bool { return cover[a].lo < cover[b].lo })
	free, at := int64(0), iv.lo
	for _, c := range cover {
		if c.lo > at {
			free += min(c.lo, iv.hi) - at
		}
		at = max(at, c.hi)
		if at >= iv.hi {
			break
		}
	}
	if at < iv.hi {
		free += iv.hi - at
	}
	return float64(free) / 1e6
}
