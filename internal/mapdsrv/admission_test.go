package mapdsrv

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/jobstore"
)

// jsonDecode decodes a response body; closing is left to the caller.
func jsonDecode(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJob submits jobBody with an X-Client-ID and returns the response
// (caller closes the body).
func postJob(t *testing.T, url, client string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(jobBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestQuotaShedsWith429AndRetryAfter(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	srv := httptest.NewServer(New(eng, Config{QuotaRate: 0.01, QuotaBurst: 2}))
	t.Cleanup(func() { srv.Close(); eng.Close() })

	// Burst of 2 admitted, the third sheds.
	for i := 0; i < 2; i++ {
		resp := postJob(t, srv.URL, "alice")
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("request %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	resp := postJob(t, srv.URL, "alice")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 without a usable Retry-After: %q", ra)
	}

	// Another client is unaffected: quotas are per-client, not global.
	resp = postJob(t, srv.URL, "bob")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other client: status %d, want 202", resp.StatusCode)
	}

	// The shed shows up in stats.
	var stats map[string]any
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if shed, ok := stats["shed_total"].(float64); !ok || shed < 1 {
		t.Fatalf("shed_total = %v, want >= 1", stats["shed_total"])
	}
	adm, ok := stats["admission"].(map[string]any)
	if !ok {
		t.Fatalf("no admission block in stats: %v", stats)
	}
	hits, ok := adm["quota_hits"].(map[string]any)
	if !ok || hits["alice"].(float64) < 1 {
		t.Fatalf("per-client quota hits missing: %v", adm)
	}
}

// TestQueueFullShedsWith429 is the synthetic-overload acceptance check:
// with the queue at capacity, submissions shed with 429 + Retry-After
// in bounded time, and the jobs that were accepted still complete with
// full quality.
func TestQueueFullShedsWith429(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, QueueCap: 1})
	srv := httptest.NewServer(New(eng, Config{}))
	t.Cleanup(func() { srv.Close(); eng.Close() })

	// The jobs must outlast the submit loop on a warm cache, or the
	// 1-deep queue drains between submissions and nothing sheds: a full
	// Gnutella graph with a deep enhancement stage runs for seconds,
	// while the 12 loopback submissions take milliseconds.
	slow := strings.NewReplacer(
		`"scale": 0.05`, `"scale": 1.0`,
		`"topology": "grid:4x4"`, `"topology": "grid:8x8"`,
		`"num_hierarchies": 4`, `"num_hierarchies": 120`,
	).Replace(jobBody)
	accepted := []string{}
	sheds := 0
	for i := 0; i < 12; i++ {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(slow))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var job engine.Job
			if err := jsonDecode(resp, &job); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, job.ID)
		case http.StatusTooManyRequests:
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("queue-full 429 without Retry-After")
			}
			sheds++
		default:
			t.Fatalf("request %d: unexpected status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if sheds == 0 {
		t.Fatal("queue never filled; overload was not synthesized")
	}
	// Accepted jobs all complete, and with real results.
	for _, id := range accepted {
		job := waitDone(t, srv, id)
		if job.Status != engine.StatusDone || job.Result.CocoAfter <= 0 {
			t.Fatalf("accepted job %s did not complete cleanly: %+v", id, job)
		}
	}
}

// TestWaitReleasedWith503WhileDraining is the regression test for the
// ?wait=1 shutdown hang: a parked waiter must be released with 503 +
// Retry-After once the engine begins draining.
func TestWaitReleasedWith503WhileDraining(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	srv := httptest.NewServer(New(eng, Config{}))
	t.Cleanup(func() { srv.Close(); eng.Close() })

	slow := strings.Replace(jobBody, `"num_hierarchies": 4`, `"num_hierarchies": 80`, 1)
	var first, second engine.Job
	if code := postJSON(t, srv.URL+"/v1/jobs", slow, &first); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// A second job stays queued behind the first on the single worker.
	if code := postJSON(t, srv.URL+"/v1/jobs", slow, &second); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	type result struct {
		code       int
		retryAfter string
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + second.ID + "?wait=1")
		if err != nil {
			got <- result{code: -1}
			return
		}
		defer resp.Body.Close()
		got <- result{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	}()
	// Let the waiter park, then drain.
	time.Sleep(100 * time.Millisecond)
	eng.BeginDrain()
	select {
	case r := <-got:
		// 503 (released waiter) is the expected path; 200 is legal only
		// if the job actually finished first.
		if r.code == http.StatusOK {
			t.Skip("job finished before the drain; nothing to regress")
		}
		if r.code != http.StatusServiceUnavailable {
			t.Fatalf("draining wait returned %d, want 503", r.code)
		}
		if r.retryAfter == "" {
			t.Fatal("draining 503 without Retry-After")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("?wait=1 still hanging after BeginDrain — the shutdown hang is back")
	}

	// Submissions during the drain shed with 503 too.
	resp := postJob(t, srv.URL, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit during drain: %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if err := eng.DrainAndClose(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerSurvivesServerRestart drives the durability story over
// HTTP: a second mapd on the same -job-dir serves the first one's
// finished jobs by their old IDs and answers duplicate submissions from
// the ledger.
func TestLedgerSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()
	eng := engine.New(engine.Options{Workers: 2, JobDir: dir})
	srv := httptest.NewServer(New(eng, Config{}))

	var submitted engine.Job
	if code := postJSON(t, srv.URL+"/v1/jobs", jobBody, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	first := waitDone(t, srv, submitted.ID)
	if first.Status != engine.StatusDone {
		t.Fatalf("job failed: %s", first.Error)
	}
	srv.Close()
	if err := eng.DrainAndClose(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	eng2 := engine.New(engine.Options{Workers: 2, JobDir: dir})
	srv2 := httptest.NewServer(New(eng2, Config{}))
	t.Cleanup(func() { srv2.Close(); eng2.Close() })

	var replayed engine.Job
	if code := getJSON(t, srv2.URL+"/v1/jobs/"+first.ID, &replayed); code != http.StatusOK {
		t.Fatalf("GET replayed job: %d", code)
	}
	if replayed.Status != engine.StatusDone || replayed.Result.CocoAfter != first.Result.CocoAfter {
		t.Fatalf("replayed job differs: %+v", replayed)
	}

	var dup engine.Job
	if code := postJSON(t, srv2.URL+"/v1/jobs", jobBody, &dup); code != http.StatusAccepted {
		t.Fatalf("duplicate submit: %d", code)
	}
	if dup.Status != engine.StatusDone || dup.Result == nil || !dup.Result.ServedFromLedger {
		t.Fatalf("duplicate not served from ledger: %+v", dup)
	}

	var stats map[string]any
	getJSON(t, srv2.URL+"/v1/stats", &stats)
	engStats := stats["engine"].(map[string]any)
	js, ok := engStats["job_store"].(map[string]any)
	if !ok {
		t.Fatalf("no job_store block in stats: %v", engStats)
	}
	if js["dedup_served"].(float64) != 1 {
		t.Fatalf("dedup_served = %v, want 1", js["dedup_served"])
	}
	if js["wal_records"].(float64) <= 0 || js["wal_bytes"].(float64) <= 0 {
		t.Fatalf("wal counters missing: %v", js)
	}
}

// TestNumHierarchiesCapRejectedAt400 posts the NH poison pill to a
// durable mapd. Admitted, it would exhaust memory in TIMER and, replayed
// from the ledger, kill every restart; instead it must be refused with
// a non-retryable 400 naming the field, leave no ledger record, and
// leave the server serving.
func TestNumHierarchiesCapRejectedAt400(t *testing.T) {
	dir := t.TempDir()
	eng := engine.New(engine.Options{Workers: 1, JobDir: dir})
	srv := httptest.NewServer(New(eng, Config{}))

	poison := `{"graph":{"network":"p2p-Gnutella","scale":0.05,"seed":11},"topology":"grid:4x4","num_hierarchies":1099511627776}`
	var out map[string]any
	if code := postJSON(t, srv.URL+"/v1/jobs", poison, &out); code != http.StatusBadRequest {
		t.Fatalf("poison spec: status %d, want 400 (%v)", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "num_hierarchies") {
		t.Errorf("error %q does not name num_hierarchies", msg)
	}
	var health map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz after poison: %d", code)
	}
	srv.Close()
	if err := eng.DrainAndClose(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	store, rec, err := jobstore.Open(dir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if rec.Records != 0 || len(rec.Jobs) != 0 {
		t.Fatalf("ledger holds %d records / %d jobs after a refused submit, want none", rec.Records, len(rec.Jobs))
	}
}
