// Command mapd serves the concurrent mapping engine over HTTP: submit
// partition→map→enhance jobs, poll their status and stage timings, and
// inspect the shared artifact cache (topologies, graphs, partitions).
//
// Usage:
//
//	mapd                                     # listen on :8080
//	mapd -addr :9000 -workers 8 -queue 256
//	mapd -prewarm grid:16x16,hypercube:8     # build labelings at boot
//	mapd -cache-dir /var/cache/mapd          # persistent artifact tier:
//	                                         # restarts warm-start from
//	                                         # the previous process's
//	                                         # graphs and partitions
//	mapd -job-dir /var/lib/mapd/jobs         # durable job ledger: a
//	                                         # restart requeues unfinished
//	                                         # jobs and re-serves finished
//	                                         # ones by their old IDs
//	mapd -quota 2 -quota-burst 5             # per-client admission quota;
//	                                         # over-quota submissions get
//	                                         # 429 + Retry-After
//
// Example session:
//
//	curl -s localhost:8080/v1/jobs -d '{
//	  "graph": {"network": "p2p-Gnutella", "scale": 0.05},
//	  "topology": "grid:8x8", "case": "identity",
//	  "num_hierarchies": 10, "seed": 42}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -s localhost:8080/v1/topologies
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/mapdsrv"
	"repro/internal/topology"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "pipeline worker count (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "job queue capacity (0 = default)")
		prewarm   = flag.String("prewarm", "", "comma-separated topology specs to build at boot ('paper' = the paper's five)")
		withPprof = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		wideThr   = flag.Float64("wide-threshold", 0, "pool-occupancy fraction below which jobs widen onto idle workers (0 = default 0.5, negative = only jobs with \"wide\": true)")
		maxUpload = flag.Int64("max-upload", 0, "request-body / graph-upload size cap in bytes (0 = default 64 MiB)")
		cacheDir  = flag.String("cache-dir", "", "directory of the persistent artifact tier (empty = memory-only; restarts with the same dir are served from disk snapshots)")
		cacheDisk = flag.Int64("cache-disk-bytes", 0, "byte budget of the disk tier's LRU sweep (0 = default 2 GiB)")
		jobDir    = flag.String("job-dir", "", "directory of the durable job ledger (empty = jobs die with the process; restarts with the same dir requeue unfinished jobs and re-serve finished ones)")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM/SIGINT shutdown waits for running jobs before exiting")
		quota     = flag.Float64("quota", 0, "per-client submission quota in requests/second, keyed by X-Client-ID or remote host (0 = unlimited); over-quota requests get 429 + Retry-After")
		quotaBur  = flag.Int("quota-burst", 0, "per-client burst above -quota (0 = 2x the rate, minimum 1)")
	)
	flag.Parse()

	for _, d := range []struct{ flag, dir string }{{"-cache-dir", *cacheDir}, {"-job-dir", *jobDir}} {
		if d.dir == "" {
			continue
		}
		// The engine degrades (memory-only cache, non-durable jobs) on a
		// bad directory — it has no error return; an operator who asked
		// for persistence should instead fail fast at boot.
		if err := os.MkdirAll(d.dir, 0o755); err != nil {
			log.Fatal(fmt.Errorf("mapd: %s: %w", d.flag, err))
		}
	}
	eng := engine.New(engine.Options{
		Workers: *workers, QueueCap: *queue, WideThreshold: *wideThr,
		CacheDir: *cacheDir, DiskCacheBytes: *cacheDisk, JobDir: *jobDir,
	})
	if st := eng.Stats().JobStore; st != nil {
		if st.Error != "" {
			log.Fatal(fmt.Errorf("mapd: -job-dir: %s", st.Error))
		}
		log.Printf("mapd: job ledger %s: %d records replayed, %d unfinished jobs requeued", st.Dir, st.WALRecords, st.JobsRecovered)
	}

	if *prewarm != "" {
		specs := strings.Split(*prewarm, ",")
		if *prewarm == "paper" {
			specs = topology.KnownSpecs()
		}
		for _, spec := range specs {
			if _, err := eng.Topology(spec); err != nil {
				log.Printf("mapd: prewarm: %v", err)
			}
		}
		for _, info := range eng.Artifacts().Topologies() {
			log.Printf("mapd: cached %s (%d PEs, dim %d) in %.3fs", info.Spec, info.PEs, info.Dim, info.BuildSeconds)
		}
	}

	if *withPprof {
		log.Printf("mapd: pprof enabled under /debug/pprof/")
	}
	srv := &http.Server{
		Addr: *addr,
		Handler: mapdsrv.New(eng, mapdsrv.Config{
			Pprof: *withPprof, MaxBody: *maxUpload,
			QuotaRate: *quota, QuotaBurst: *quotaBur,
		}),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("mapd: listening on %s (%d workers)", *addr, eng.Workers())
		errCh <- srv.ListenAndServe()
	}()

	// Graceful shutdown on SIGINT/SIGTERM, with or without a job
	// ledger: begin draining first so parked ?wait=1 handlers release
	// with 503 + Retry-After and Shutdown can finish, then stop the
	// listener, then drain the engine — running jobs get -drain-timeout
	// to complete, queued jobs are handed back to the ledger (or, with
	// no -job-dir, finished as interrupted) instead of being silently
	// lost mid-execution.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(fmt.Errorf("mapd: %w", err))
		}
	case sig := <-sigCh:
		log.Printf("mapd: %s: draining (timeout %s)", sig, *drainWait)
		eng.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("mapd: http shutdown: %v", err)
		}
		cancel()
		if err := eng.DrainAndClose(*drainWait); err != nil {
			log.Fatal(fmt.Errorf("mapd: %w", err))
		}
		log.Printf("mapd: drained cleanly")
	}
}
