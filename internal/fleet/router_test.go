package fleet_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/mapclient"
	"repro/internal/mapdsrv"
)

// testReplica is an in-process mapd: a real engine behind the real
// mapdsrv handler on a real TCP listener, killable and restartable at
// the same address.
type testReplica struct {
	t    *testing.T
	addr string
	srv  *http.Server
	eng  *engine.Engine
}

func startReplicaAt(t *testing.T, addr string, opts engine.Options) *testReplica {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ { // rebinding a just-closed address can race
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	eng := engine.New(opts)
	srv := &http.Server{Handler: mapdsrv.New(eng, mapdsrv.Config{})}
	go srv.Serve(ln)
	r := &testReplica{t: t, addr: ln.Addr().String(), srv: srv, eng: eng}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return r
}

func (r *testReplica) url() string { return "http://" + r.addr }

// kill closes the listener and every open connection — the in-process
// approximation of kill -9: waiters see resets, new dials are refused.
// The engine object stays alive so cleanup stays simple.
func (r *testReplica) kill() { r.srv.Close() }

func fastRouter(t *testing.T, replicaURLs []string) (*fleet.Router, *httptest.Server) {
	t.Helper()
	rt, err := fleet.NewRouter(fleet.Config{
		Replicas:         replicaURLs,
		ProbeInterval:    30 * time.Millisecond,
		ProbeTimeout:     500 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  300 * time.Millisecond,
		UpstreamTimeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		srv.Close()
		rt.Close()
	})
	return rt, srv
}

// homeReplica resolves the replica rendezvous ranks first for key —
// the one holding a job with that routing key while the fleet is
// healthy.
func homeReplica(rt *fleet.Router, key string) *fleet.Replica {
	url := rt.HomeOf(key)
	for _, rep := range rt.ReplicasForTest() {
		if rep.Name == url {
			return rep
		}
	}
	return nil
}

// waitUsable polls the router until n replicas are probed ready.
func waitUsable(t *testing.T, rt *fleet.Router, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rt.UsableCountForTest() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d replicas became usable", rt.UsableCountForTest(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func testSpec(seed int64) engine.JobSpec {
	return engine.JobSpec{
		Graph:          engine.GraphSpec{Network: "p2p-Gnutella", Scale: 0.05, Seed: 11},
		Topology:       "grid:4x4",
		Seed:           seed,
		NumHierarchies: 4,
	}
}

func TestRouterRoutesJobsToCompletion(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, startReplicaAt(t, "", engine.Options{Workers: 2}).url())
	}
	rt, srv := fastRouter(t, urls)
	waitUsable(t, rt, 3)

	c := mapclient.New(srv.URL, mapclient.Config{AttemptTimeout: 15 * time.Second})
	ctx := context.Background()
	var ids []string
	for seed := int64(1); seed <= 6; seed++ {
		job, err := c.SubmitJob(ctx, testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if job.ID == "" || job.ID[:3] != "fl-" {
			t.Fatalf("router returned ID %q, want fl- namespace", job.ID)
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		job, err := c.WaitJob(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status != engine.StatusDone {
			t.Fatalf("job %s: %s (%s)", id, job.Status, job.Error)
		}
		if job.ID != id {
			t.Errorf("wait returned ID %q, want the router ID %q", job.ID, id)
		}
	}

	// Routing affinity: resubmitting a spec must land on the replica
	// that already computed it. With 3 replicas and 6 seeds, at least
	// one replica served ≥ 2 submits; resubmitting seed 1 adds exactly
	// one submit to whichever replica owned it before.
	var before []int64
	for _, rep := range rt.ReplicasForTest() {
		before = append(before, rep.SubmitsForTest())
	}
	if _, err := c.SubmitJob(ctx, testSpec(1)); err != nil {
		t.Fatal(err)
	}
	changed := -1
	for i, rep := range rt.ReplicasForTest() {
		if d := rep.SubmitsForTest() - before[i]; d == 1 && changed == -1 {
			changed = i
		} else if d != 0 && (d != 1 || changed != -1) {
			t.Fatalf("resubmission spread across replicas")
		}
	}
	if changed == -1 {
		t.Fatal("resubmission reached no replica")
	}
	if before[changed] == 0 {
		t.Error("resubmitted spec landed on a replica that had never seen it")
	}
}

func TestRouterFailsOverWhenReplicaDies(t *testing.T) {
	replicas := make([]*testReplica, 3)
	var urls []string
	for i := range replicas {
		replicas[i] = startReplicaAt(t, "", engine.Options{Workers: 2})
		urls = append(urls, replicas[i].url())
	}
	rt, srv := fastRouter(t, urls)
	waitUsable(t, rt, 3)

	// Heavy enough (full-scale graph, long enhancement tail) that the
	// job is guaranteed to still be in flight when the kill lands —
	// without the race detector's slowdown a scale-0.05 job can finish
	// inside the kill delay and no failover would ever be needed.
	spec := testSpec(7)
	spec.Graph.Scale = 0.25
	spec.NumHierarchies = 120

	// Find the spec's home replica so the kill is guaranteed to hit
	// the placement.
	key, ok := engine.SpecHash(spec)
	if !ok {
		t.Fatal("spec has no hash")
	}
	home := homeReplica(rt, key)
	var victim *testReplica
	for _, r := range replicas {
		if r.url() == home.Name {
			victim = r
		}
	}

	c := mapclient.New(srv.URL, mapclient.Config{AttemptTimeout: 15 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan engine.Job, 1)
	errCh := make(chan error, 1)
	go func() {
		j, err := c.WaitJob(ctx, job.ID)
		if err != nil {
			errCh <- err
			return
		}
		done <- j
	}()

	// Kill the moment the victim has accepted the placement.
	deadline := time.Now().Add(15 * time.Second)
	for home.SubmitsForTest() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("home replica never received the placement")
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim.kill()

	var got engine.Job
	select {
	case got = <-done:
	case err := <-errCh:
		t.Fatalf("wait through failover errored: %v", err)
	}
	if got.Status != engine.StatusDone {
		t.Fatalf("failed-over job: %s (%s)", got.Status, got.Error)
	}
	if n := rt.Failovers(); n < 1 {
		t.Errorf("router recorded %d failovers, want ≥ 1", n)
	}

	// Byte-identical to an uninterrupted single-engine reference.
	ref := engine.New(engine.Options{Workers: 2})
	defer ref.Close()
	refJob, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Wait(refJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := got.Result.StripPerf(), want.Result.StripPerf(); !reflect.DeepEqual(a, b) {
		t.Errorf("failover result diverged from reference:\n%+v\nvs\n%+v", a, b)
	}
}

func TestRouterBreakerOpensAndRecloses(t *testing.T) {
	stable := startReplicaAt(t, "", engine.Options{Workers: 2})
	flaky := startReplicaAt(t, "", engine.Options{Workers: 2})
	rt, srv := fastRouter(t, []string{stable.url(), flaky.url()})
	waitUsable(t, rt, 2)

	flaky.kill()
	flakyRep := rt.ReplicasForTest()[1]
	deadline := time.Now().Add(10 * time.Second)
	for {
		if state, _, _ := flakyRep.BreakerForTest(); state == "open" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened on a dead replica")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The fleet still serves with zero client-visible errors.
	c := mapclient.New(srv.URL, mapclient.Config{AttemptTimeout: 15 * time.Second})
	job, err := c.SubmitJob(context.Background(), testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if j, err := c.WaitJob(context.Background(), job.ID); err != nil || j.Status != engine.StatusDone {
		t.Fatalf("job during outage: %v / %+v", err, j.Status)
	}

	// Replica restarts at the same address: the health probe is the
	// half-open trial, and its first success recloses the breaker.
	startReplicaAt(t, flaky.addr, engine.Options{Workers: 2})
	deadline = time.Now().Add(10 * time.Second)
	for {
		state, _, _ := flakyRep.BreakerForTest()
		if state == "closed" && flakyRep.ReadyForTest() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker stuck %s after replica restart", state)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRouterSheds503WithNoUsableReplica(t *testing.T) {
	lone := startReplicaAt(t, "", engine.Options{Workers: 1})
	rt, srv := fastRouter(t, []string{lone.url()})
	waitUsable(t, rt, 1)
	lone.kill()

	deadline := time.Now().Add(5 * time.Second)
	for rt.UsableCountForTest() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead replica still counted usable")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with dead fleet: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("/readyz 503 missing Retry-After")
	}
}

// TestRouterServesReadmeBatch posts the README's batch body through the
// router: the router speaks mapd's POST /v1/batches, answers 202 with
// the expanded job IDs, and every job reaches done.
func TestRouterServesReadmeBatch(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		urls = append(urls, startReplicaAt(t, "", engine.Options{Workers: 2}).url())
	}
	rt, srv := fastRouter(t, urls)
	waitUsable(t, rt, 2)

	body := `{"graphs":[{"network":"p2p-Gnutella","scale":0.05}],"topologies":["grid:4x4","hypercube:4"],"case":"identity","reps":2}`
	resp, err := http.Post(srv.URL+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		JobIDs []string `json:"job_ids"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("POST /v1/batches: %d (decode: %v)", resp.StatusCode, err)
	}
	if len(out.JobIDs) != 4 {
		t.Fatalf("batch expanded to %d job IDs, want 4 (1 graph × 2 topologies × 2 reps)", len(out.JobIDs))
	}
	c := mapclient.New(srv.URL, mapclient.Config{AttemptTimeout: 15 * time.Second})
	for _, id := range out.JobIDs {
		job, err := c.WaitJob(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status != engine.StatusDone {
			t.Fatalf("job %s: %s (%s)", id, job.Status, job.Error)
		}
	}
}

func TestRouterBatchScatterMatchesSingleEngine(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, startReplicaAt(t, "", engine.Options{Workers: 2}).url())
	}
	rt, srv := fastRouter(t, urls)
	waitUsable(t, rt, 3)

	batch := engine.BatchSpec{
		Graphs:         []engine.GraphSpec{{Network: "p2p-Gnutella", Scale: 0.05}},
		Topologies:     []string{"grid:4x4", "hypercube:4"},
		Reps:           2,
		Seed:           9,
		NumHierarchies: 3,
	}
	c := mapclient.New(srv.URL, mapclient.Config{AttemptTimeout: 15 * time.Second})
	jobs, err := c.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}

	ref := engine.New(engine.Options{Workers: 2})
	defer ref.Close()
	want, err := ref.RunBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(want) {
		t.Fatalf("scattered batch has %d jobs, reference %d", len(jobs), len(want))
	}
	for i := range jobs {
		if jobs[i].Status != engine.StatusDone {
			t.Fatalf("job %d: %s (%s)", i, jobs[i].Status, jobs[i].Error)
		}
		if a, b := jobs[i].Result.StripPerf(), want[i].Result.StripPerf(); !reflect.DeepEqual(a, b) {
			t.Errorf("job %d diverged from single-engine reference", i)
		}
	}

	// The scatter actually spread: with 4 distinct specs over 3
	// replicas, at least two replicas saw work.
	busy := 0
	for _, rep := range rt.ReplicasForTest() {
		if rep.SubmitsForTest() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("batch landed on %d replicas, want ≥ 2 (rendezvous spread)", busy)
	}
}
