package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/mapclient"
	"repro/internal/mapdsrv"
)

// serveReplicas is the fleet size; each replica runs one engine worker.
const serveReplicas = 2

// serveSystem is the serve-small fleet: mapd replicas (mapdsrv handlers
// over durable engines) behind an in-process maprouter, all on loopback
// TCP, driven by mapclient clients.
type serveSystem struct {
	seed    int64
	engines []*engine.Engine
	servers []*http.Server
	serving sync.WaitGroup
	router  *fleet.Router
	clients []*mapclient.Client

	mu    sync.Mutex
	specs []engine.JobSpec
	next  atomic.Int64
}

func newServeSystem(cfg config, dir string, tr *tracer) (sys system, err error) {
	s := &serveSystem{seed: cfg.seed}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var urls []string
	for k := 0; k < serveReplicas; k++ {
		// Automatic wide mode stays off: both replicas share this
		// process's CPUs, so each would lend the other's busy CPUs to
		// its own jobs as if they were idle.
		eng := engine.New(engine.Options{
			Workers:            1,
			JobDir:             filepath.Join(dir, fmt.Sprint("replica", k)),
			WideThreshold:      -1,
			ArtifactCacheBytes: artifactCacheBytes,
		})
		s.engines = append(s.engines, eng)
		if js := eng.Stats().JobStore; js == nil || js.Error != "" {
			return nil, fmt.Errorf("replica %d has no durable ledger: %+v", k, js)
		}
		for _, t := range cfg.workload.topologies {
			if _, err := eng.Topology(t); err != nil {
				return nil, err
			}
		}
		h := mapdsrv.New(eng, mapdsrv.Config{})
		if tr != nil {
			h = tr.handler(h, layerReplica, k)
		}
		url, err := s.serve(h)
		if err != nil {
			return nil, err
		}
		urls = append(urls, url)
	}
	s.router, err = fleet.NewRouter(fleet.Config{Replicas: urls})
	if err != nil {
		return nil, err
	}
	h := s.router.Handler()
	if tr != nil {
		h = tr.handler(h, layerRouter, 0)
	}
	routerURL, err := s.serve(h)
	if err != nil {
		return nil, err
	}
	for c := 0; c < loadWidth; c++ {
		s.clients = append(s.clients, mapclient.New(routerURL, mapclient.Config{
			ClientID:    fmt.Sprint("perfbench-", c),
			MaxAttempts: 1,
		}))
	}
	for _, u := range urls {
		if err := waitReady(u+"/readyz", func(map[string]any) bool { return true }); err != nil {
			return nil, err
		}
	}
	err = waitReady(routerURL+"/healthz", func(doc map[string]any) bool {
		usable, _ := doc["usable"].(float64)
		return int(usable) == serveReplicas
	})
	return s, err
}

// serve starts an HTTP server for h on a loopback port.
func (s *serveSystem) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// waitReady polls url until it answers 200 with a document ready
// accepts, for at most 10 seconds.
func waitReady(url string, ready func(map[string]any) bool) error {
	deadline := time.Now().Add(10 * time.Second)
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		if resp, err := client.Get(url); err == nil {
			var doc map[string]any
			decErr := json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && decErr == nil && ready(doc) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready", url)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// spec returns job i of the deterministic sequence.
func (s *serveSystem) spec(i int) engine.JobSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.specs) <= i {
		s.specs = append(s.specs, serveSpec(s.seed, len(s.specs), s.specs))
	}
	return s.specs[i]
}

func (s *serveSystem) drive(start time.Time, window time.Duration, minJobs int, tr *tracer) []outcome {
	deadline := start.Add(window)
	per := make([][]outcome, len(s.clients))
	var wg sync.WaitGroup
	for c, cl := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(s.next.Add(1) - 1)
				if i >= minJobs && !time.Now().Before(deadline) {
					return
				}
				per[c] = append(per[c], s.call(cl, i, tr))
			}
		}()
	}
	wg.Wait()
	var outs []outcome
	for _, o := range per {
		outs = append(outs, o...)
	}
	return outs
}

// call submits job i and long-polls it to completion. Each client call
// is one attempt, so a refusal counts as a failure instead of being
// retried away.
func (s *serveSystem) call(cl *mapclient.Client, i int, tr *tracer) outcome {
	ctx := context.Background()
	o := outcome{index: i, spec: s.spec(i)}
	o.sent = time.Now()
	job, err := cl.SubmitJob(ctx, o.spec)
	submitted := time.Now()
	tr.clientSpan(layerClientSubmit, o.spec, job.ID, o.sent, submitted)
	if err == nil && job.Status != engine.StatusDone && job.Status != engine.StatusFailed {
		job, err = cl.WaitJob(ctx, job.ID)
		tr.clientSpan(layerClientWait, o.spec, job.ID, submitted, time.Now())
	}
	o.got = time.Now()
	o.job, o.err = job, err
	return o
}

func (s *serveSystem) snapshot() counters {
	c := counters{proc: readProc()}
	for _, eng := range s.engines {
		st := eng.Stats()
		c.served = append(c.served, st.JobsServed)
		c.wideJobs += st.WideJobs
		if a := st.Artifacts; a != nil {
			c.art.Hits += a.Hits
			c.art.Misses += a.Misses
			c.art.InflightWaits += a.InflightWaits
			c.art.Evictions += a.Evictions
		}
		if js := st.JobStore; js != nil {
			c.walRecords += js.WALRecords
			c.walBytes += js.WALBytes
			c.dedup += js.DedupServed
		}
	}
	if s.router != nil {
		c.failovers = s.router.Failovers()
	}
	return c
}

func (s *serveSystem) engineJobs() []nodeJob {
	var out []nodeJob
	for k, eng := range s.engines {
		for _, j := range eng.Jobs() {
			out = append(out, nodeJob{k, j})
		}
	}
	return out
}

func (s *serveSystem) workers() int {
	n := 0
	for _, eng := range s.engines {
		n += eng.Workers()
	}
	return n
}

func (s *serveSystem) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	s.serving.Wait()
	if s.router != nil {
		s.router.Close()
	}
	for _, eng := range s.engines {
		if err := eng.DrainAndClose(10 * time.Second); err != nil {
			eng.Close()
		}
	}
}
