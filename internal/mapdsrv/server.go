// Package mapdsrv implements the mapd HTTP API as an importable
// handler: cmd/mapd mounts it on its listener, and the fleet layer
// (internal/fleet, mapbench's fleet probe, the chaos tests) uses
// it to run real replica servers in-process or in killable child
// processes instead of mocking the API. It also owns the job API's
// HTTP contract (jobAPI: routes, decoding, envelopes, error statuses),
// which maprouter serves over its fleet through JobAPI.
package mapdsrv

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/ingest"
)

// server is mapd: the job API (jobAPI, whose doc comment lists its
// routes) served over an engine, plus the mapd-only routes beside it:
//
//	GET  /v1/jobs          list all jobs
//	POST /v1/graphs        ingest a real-world graph: a JSON body
//	                       {"path": ...} ingests server-side, any other
//	                       body is the graph bytes themselves (SNAP /
//	                       Matrix Market / METIS, auto-detected); returns
//	                       the registration with its "ref" for job specs
//	GET  /v1/graphs        list ingested graphs
//	GET  /v1/graphs/{ref}  one ingested graph's registration
//	GET  /v1/topologies    cached topologies: build time + hits per entry
//	GET  /v1/bench/matrices  canonical benchmark matrices (smoke, paper)
//	GET  /debug/pprof/*    CPU/heap/goroutine profiles (only with -pprof)
//
// Submissions pass quota admission (admission.go) before the job API
// decodes them.
type server struct {
	eng *engine.Engine
	// limit is the per-client admission limiter; nil admits everything.
	limit *limiter
	// api serves the job API over this server; its maxBody caps graph
	// uploads too, and its shed counter is per-server, so in-process
	// fleet replicas count independently.
	api jobAPI
}

// Config bundles New's knobs, all optional.
type Config struct {
	// Pprof mounts net/http/pprof under /debug/pprof/ when true (opt-in:
	// profiling endpoints on a production port are an operational
	// decision, not a default).
	Pprof bool
	// MaxBody caps request bodies in bytes (0 = the 64 MiB default).
	MaxBody int64
	// QuotaRate is the per-client submission quota in requests/second
	// (0 = unlimited); QuotaBurst the burst above it (0 = 2x the rate).
	QuotaRate  float64
	QuotaBurst int
}

// New builds the mapd HTTP handler around an engine.
func New(eng *engine.Engine, cfg Config) http.Handler {
	maxBody := cfg.MaxBody
	if maxBody <= 0 {
		maxBody = maxBodyBytes
	}
	s := &server{eng: eng, limit: newLimiter(cfg.QuotaRate, cfg.QuotaBurst)}
	s.api.b, s.api.maxBody, s.api.admit = s, maxBody, s.admit
	mux := http.NewServeMux()
	s.api.mount(mux)
	mux.HandleFunc("GET /v1/jobs", s.listJobs)
	mux.HandleFunc("POST /v1/graphs", s.ingestGraph)
	mux.HandleFunc("GET /v1/graphs", s.listGraphs)
	mux.HandleFunc("GET /v1/graphs/{ref...}", s.getGraph)
	mux.HandleFunc("GET /v1/topologies", s.topologies)
	mux.HandleFunc("GET /v1/bench/matrices", s.benchMatrices)
	if cfg.Pprof {
		// No method prefix: net/http/pprof's contract is method-agnostic
		// (go tool pprof POSTs to /debug/pprof/symbol).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// admit runs the admission checks shared by jobs and batches: a
// draining engine sheds with 503 (come back after the restart), an
// over-quota client with 429.
func (s *server) admit(r *http.Request) error {
	if s.eng.Draining() {
		return engine.ErrDraining
	}
	if ok, wait := s.limit.allow(clientKey(r), time.Now()); !ok {
		return &quotaError{client: clientKey(r), wait: wait}
	}
	return nil
}

// maxBodyBytes is the default request-body cap (-max-upload overrides
// it): a single oversized inline edge list or graph upload must not be
// able to exhaust the server's memory.
const maxBodyBytes = 64 << 20

// SubmitJob enqueues one job on the engine.
func (s *server) SubmitJob(_ context.Context, spec engine.JobSpec) (engine.Job, error) {
	return s.eng.Submit(spec)
}

// SubmitBatch expands and enqueues a batch on the engine.
func (s *server) SubmitBatch(_ context.Context, batch engine.BatchSpec) ([]string, error) {
	return s.eng.SubmitBatch(batch)
}

// GetJob returns one job's snapshot. A wait ends with ctx (a client
// that disconnects releases the handler; the job keeps running) or
// with ErrDraining once the engine drains: the client retries after
// the restart, which recovers the job from the ledger.
func (s *server) GetJob(ctx context.Context, id string, wait bool) (engine.Job, error) {
	if wait {
		return s.eng.WaitCtx(ctx, id)
	}
	job, ok := s.eng.Get(id)
	if !ok {
		return engine.Job{}, fmt.Errorf("%w %q", engine.ErrUnknownJob, id)
	}
	return job, nil
}

func (s *server) listJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.eng.Jobs()
	// The list is a summary view: re-serializing every retained
	// assignment (up to 16MB each) or the inline edge lists of
	// still-pending specs would bloat the response; fetch a single job
	// by ID for its full record.
	for i := range jobs {
		if jobs[i].Result != nil && jobs[i].Result.Assignment != nil {
			cp := *jobs[i].Result
			cp.Assignment = nil
			jobs[i].Result = &cp
		}
		jobs[i].Spec.Graph.Edges = nil
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

// ingestRequest is the JSON form of POST /v1/graphs: a server-side
// path ingest with optional loader tuning.
type ingestRequest struct {
	Path             string `json:"path"`
	Format           string `json:"format,omitempty"`
	Weights          string `json:"weights,omitempty"`
	LargestComponent bool   `json:"largest_component,omitempty"`
}

func parseWeights(s string) (ingest.WeightMode, error) {
	switch s {
	case "", "auto":
		return ingest.WeightAuto, nil
	case "sum":
		return ingest.WeightSum, nil
	case "unit":
		return ingest.WeightUnit, nil
	default:
		return 0, fmt.Errorf("unknown weights mode %q (want auto, sum or unit)", s)
	}
}

// ingestGraph handles POST /v1/graphs. A JSON body ({"path": ...})
// ingests a file the server can see; any other content type is treated
// as the graph bytes themselves (the upload path), with loader options
// in query parameters: ?name=, ?format=, ?weights=, ?largest_component=1.
func (s *server) ingestGraph(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.api.maxBody)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req ingestRequest
		if err := decodeStrict(body, "ingest request", &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if req.Path == "" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("ingest request needs a path (or POST the graph bytes directly)"))
			return
		}
		opt, err := ingestOptions(req.Format, req.Weights, req.LargestComponent)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		info, err := s.eng.IngestPath(req.Path, opt)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"graph": info})
		return
	}

	q := r.URL.Query()
	opt, err := ingestOptions(q.Get("format"), q.Get("weights"), q.Get("largest_component") == "1" || q.Get("largest_component") == "true")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Stream the upload to a spool file instead of buffering it in
	// memory: the loader parses the spool in its own streaming passes,
	// so the server's peak memory per upload is the resident CSR, not
	// CSR + raw bytes. The spool only lives for the ingest.
	spool, err := os.CreateTemp("", "mapd-upload-*")
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("creating upload spool: %w", err))
		return
	}
	defer os.Remove(spool.Name())
	defer spool.Close()
	n, err := io.Copy(spool, body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("upload exceeds the %d-byte limit (raise with -max-upload)", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading upload: %w", err))
		return
	}
	if n == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty upload"))
		return
	}
	info, dup, err := s.eng.IngestSpool(q.Get("name"), spool.Name(), opt)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusCreated
	if dup {
		status = http.StatusOK // already registered; nothing was created
	}
	writeJSON(w, status, map[string]any{"graph": info, "deduplicated": dup})
}

func ingestOptions(format, weights string, lcc bool) (ingest.Options, error) {
	f, err := ingest.ParseFormat(format)
	if err != nil {
		return ingest.Options{}, err
	}
	wm, err := parseWeights(weights)
	if err != nil {
		return ingest.Options{}, err
	}
	return ingest.Options{Format: f, Weights: wm, LargestComponent: lcc}, nil
}

func (s *server) listGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.eng.Graphs()})
}

func (s *server) getGraph(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	info, ok := s.eng.GraphInfo(ref)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph ref %q", ref))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"graph": info})
}

// topologies lists the cached labelings; lookup totals are part of the
// artifact counters in /v1/stats.
func (s *server) topologies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"topologies": s.eng.Artifacts().Topologies()})
}

// benchMatrices serves the canonical benchmark matrices, so clients
// drive the same scenario grid that cmd/mapbench and CI run: each
// matrix names networks, topologies and cases that expand into engine
// batches.
func (s *server) benchMatrices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"matrices": bench.Matrices()})
}

// Stats reports the runtime and pool statistics an operator watches
// under load: goroutine count, heap footprint, worker-pool and queue
// state, jobs served, cumulative per-stage seconds (the engine's
// partition/map/enhance split — how much of the fleet's time goes to
// the base stage vs TIMER), and artifact-cache hit/miss/in-flight
// counters covering topologies, graphs and partitions (inside the
// engine block).
func (s *server) Stats(*http.Request) any {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	payload := map[string]any{
		"engine":            s.eng.Stats(),
		"goroutines":        runtime.NumGoroutine(),
		"heap_alloc_bytes":  mem.HeapAlloc,
		"total_alloc_bytes": mem.TotalAlloc,
		"num_gc":            mem.NumGC,
		"shed_total":        s.api.shedTotal.Load(),
	}
	if adm := s.limit.snapshot(); adm != nil {
		payload["admission"] = adm
	}
	return payload
}

// Health is liveness plus pool stats: the process answers it
// throughout a drain, with "draining" flipped.
func (s *server) Health() any {
	return map[string]any{
		"status":      "ok",
		"workers":     s.eng.Workers(),
		"queue_depth": s.eng.QueueDepth(),
		"draining":    s.eng.Draining(),
	}
}

// Ready fails with ErrDraining once a drain begins — before the
// listener goes away, so routers de-pool the replica and clients see an
// orderly "come back later" instead of refused connections.
func (s *server) Ready() (any, error) {
	if s.eng.Draining() {
		return nil, engine.ErrDraining
	}
	return map[string]any{
		"status":      "ready",
		"workers":     s.eng.Workers(),
		"queue_depth": s.eng.QueueDepth(),
	}, nil
}
