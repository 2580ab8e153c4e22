package mapdsrv_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/mapdsrv"
)

// contractTarget is one binary's job API: a base URL, and shed, which
// puts the service into a state where it refuses work with 503 (a
// draining mapd, a router whose only replica is dead).
type contractTarget struct {
	url  string
	shed func()
}

// mapdTarget serves mapdsrv.New over a fresh engine.
func mapdTarget(t *testing.T) contractTarget {
	eng := engine.New(engine.Options{Workers: 2})
	srv := httptest.NewServer(mapdsrv.New(eng, mapdsrv.Config{}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return contractTarget{url: srv.URL, shed: eng.BeginDrain}
}

// routerTarget serves fleet.Router over one in-process mapd replica.
func routerTarget(t *testing.T) contractTarget {
	eng := engine.New(engine.Options{Workers: 2})
	replica := httptest.NewServer(mapdsrv.New(eng, mapdsrv.Config{}))
	rt, err := fleet.NewRouter(fleet.Config{
		Replicas:        []string{replica.URL},
		ProbeInterval:   30 * time.Millisecond,
		ProbeTimeout:    500 * time.Millisecond,
		BreakerCooldown: 300 * time.Millisecond,
		UpstreamTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		srv.Close()
		rt.Close()
		replica.Close()
		eng.Close()
	})
	awaitReadyz(t, srv.URL, http.StatusOK)
	return contractTarget{url: srv.URL, shed: func() {
		replica.Close()
		awaitReadyz(t, srv.URL, http.StatusServiceUnavailable)
	}}
}

// awaitReadyz polls /readyz until it answers want.
func awaitReadyz(t *testing.T, url string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never answered %d", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// reply is one decoded response.
type reply struct {
	code       int
	retryAfter string
	body       map[string]any
}

func (r reply) errorMsg() string {
	msg, _ := r.body["error"].(string)
	return msg
}

func call(t *testing.T, method, url, body string) reply {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := reply{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	if err := json.NewDecoder(resp.Body).Decode(&out.body); err != nil {
		t.Fatalf("%s %s: undecodable %d response: %v", method, url, resp.StatusCode, err)
	}
	return out
}

// getJob fetches one job snapshot, decoded.
func getJob(t *testing.T, url string) (int, engine.Job) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job engine.Job
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, job
}

const (
	validJob = `{"graph":{"network":"p2p-Gnutella","scale":0.05,"seed":11},"topology":"grid:4x4","num_hierarchies":4}`
	// readmeBatch is README's POST /v1/batches example.
	readmeBatch = `{"graphs":[{"network":"p2p-Gnutella","scale":0.05}],"topologies":["grid:4x4","hypercube:4"],"case":"identity","reps":2}`
)

// TestJobAPIContract runs the same HTTP assertions against mapd
// (mapdsrv.New over an engine) and maprouter (fleet.Router over one
// replica): both serve the job API through one table, so every case
// must hold for both. The shed case runs last; it takes the service
// down.
func TestJobAPIContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, tg contractTarget)
	}{
		{"malformed body is 400", func(t *testing.T, tg contractTarget) {
			for _, path := range []string{"/v1/jobs", "/v1/batches"} {
				if r := call(t, "POST", tg.url+path, `{"bad json`); r.code != http.StatusBadRequest {
					t.Errorf("POST %s malformed: status %d, want 400 (%v)", path, r.code, r.body)
				}
			}
		}},
		{"unknown field is 400 naming it", func(t *testing.T, tg contractTarget) {
			for _, c := range []struct{ path, body, field string }{
				{"/v1/jobs", `{"unknown_field": 1}`, "unknown_field"},
				{"/v1/jobs", strings.Replace(validJob, "num_hierarchies", "num_hierarchy", 1), "num_hierarchy"},
				{"/v1/batches", strings.Replace(readmeBatch, `"reps"`, `"rep"`, 1), "rep"},
			} {
				r := call(t, "POST", tg.url+c.path, c.body)
				if r.code != http.StatusBadRequest {
					t.Errorf("POST %s with %q: status %d, want 400 (%v)", c.path, c.field, r.code, r.body)
				} else if !strings.Contains(r.errorMsg(), `"`+c.field+`"`) {
					t.Errorf("error %q does not name the unknown field %q", r.errorMsg(), c.field)
				}
			}
			// The strict decoder refuses typos, not valid specs.
			if r := call(t, "POST", tg.url+"/v1/jobs", validJob); r.code != http.StatusAccepted {
				t.Fatalf("valid spec: status %d, want 202 (%v)", r.code, r.body)
			}
		}},
		{"unknown job is 404", func(t *testing.T, tg contractTarget) {
			for _, q := range []string{"", "?wait=1", "?wait=true"} {
				if r := call(t, "GET", tg.url+"/v1/jobs/job-999999"+q, ""); r.code != http.StatusNotFound || r.errorMsg() == "" {
					t.Errorf("GET unknown job%s: status %d, want 404 with an error (%v)", q, r.code, r.body)
				}
			}
		}},
		{"spec caps are 400 naming the field", func(t *testing.T, tg contractTarget) {
			for field, value := range map[string]string{
				"num_hierarchies": "1099511627776",
				"timer_workers":   "1099511627776",
				"epsilon":         "1e6",
			} {
				body := strings.Replace(validJob, `"num_hierarchies":4`, `"`+field+`":`+value, 1)
				r := call(t, "POST", tg.url+"/v1/jobs", body)
				if r.code != http.StatusBadRequest || r.retryAfter != "" {
					t.Errorf("%s over its cap: status %d Retry-After %q, want a plain 400 (%v)", field, r.code, r.retryAfter, r.body)
				} else if !strings.Contains(r.errorMsg(), field) {
					t.Errorf("error %q does not name %s", r.errorMsg(), field)
				}
			}
		}},
		{"oversized batch is 400 naming reps", func(t *testing.T, tg contractTarget) {
			body := strings.Replace(readmeBatch, `"reps":2`, `"reps":1099511627776`, 1)
			r := call(t, "POST", tg.url+"/v1/batches", body)
			if r.code != http.StatusBadRequest {
				t.Fatalf("oversized batch: status %d, want 400 (%v)", r.code, r.body)
			}
			if !strings.Contains(r.errorMsg(), "reps") {
				t.Errorf("error %q does not name reps", r.errorMsg())
			}
			if r := call(t, "GET", tg.url+"/healthz", ""); r.code != http.StatusOK {
				t.Fatalf("healthz after oversized batch: %d", r.code)
			}
		}},
		{"README batch runs to done", func(t *testing.T, tg contractTarget) {
			r := call(t, "POST", tg.url+"/v1/batches", readmeBatch)
			ids, _ := r.body["job_ids"].([]any)
			if r.code != http.StatusAccepted || len(ids) != 4 {
				t.Fatalf("README batch: status %d with %d job IDs, want 202 with 4 (1 graph × 2 topologies × 2 reps): %v", r.code, len(ids), r.body)
			}
			for _, id := range ids {
				code, job := getJob(t, tg.url+"/v1/jobs/"+id.(string)+"?wait=1")
				if code != http.StatusOK || job.Status != engine.StatusDone {
					t.Fatalf("batch job %v: status %d, %s (%s)", id, code, job.Status, job.Error)
				}
			}
		}},
		{"wait=1 and wait=true agree", func(t *testing.T, tg contractTarget) {
			r := call(t, "POST", tg.url+"/v1/jobs", strings.Replace(validJob, `"seed":11`, `"seed":12`, 1))
			id, _ := r.body["id"].(string)
			if r.code != http.StatusAccepted || id == "" {
				t.Fatalf("submit: status %d (%v), want 202", r.code, r.body)
			}
			code1, one := getJob(t, tg.url+"/v1/jobs/"+id+"?wait=1")
			codeTrue, viaTrue := getJob(t, tg.url+"/v1/jobs/"+id+"?wait=true")
			if code1 != http.StatusOK || codeTrue != http.StatusOK {
				t.Fatalf("?wait=1: %d, ?wait=true: %d, want 200 for both", code1, codeTrue)
			}
			if one.Status != engine.StatusDone || one.ID != id {
				t.Fatalf("?wait=1 returned %s %s (%s), want %s done", one.ID, one.Status, one.Error, id)
			}
			if !reflect.DeepEqual(one, viaTrue) {
				t.Errorf("?wait=1 and ?wait=true returned different snapshots:\n%+v\nvs\n%+v", one, viaTrue)
			}
		}},
		{"bad topology fails the job asynchronously", func(t *testing.T, tg contractTarget) {
			r := call(t, "POST", tg.url+"/v1/jobs", `{"graph": {"n": 9, "edges": [[0,1,1]]}, "topology": "bogus"}`)
			id, _ := r.body["id"].(string)
			if r.code != http.StatusAccepted || id == "" {
				t.Fatalf("submit: status %d (%v), want 202", r.code, r.body)
			}
			if code, job := getJob(t, tg.url+"/v1/jobs/"+id+"?wait=1"); code != http.StatusOK || job.Status != engine.StatusFailed {
				t.Errorf("bad-topology job: status %d, %s, want failed", code, job.Status)
			}
		}},
		{"503 shed carries Retry-After", func(t *testing.T, tg contractTarget) {
			tg.shed()
			for _, c := range []struct{ method, path, body string }{
				{"POST", "/v1/jobs", validJob},
				{"POST", "/v1/batches", readmeBatch},
				{"GET", "/readyz", ""},
			} {
				r := call(t, c.method, tg.url+c.path, c.body)
				if r.code != http.StatusServiceUnavailable {
					t.Errorf("%s %s while shedding: status %d, want 503 (%v)", c.method, c.path, r.code, r.body)
				}
				if secs, err := strconv.Atoi(r.retryAfter); err != nil || secs < 1 {
					t.Errorf("%s %s: 503 with Retry-After %q, want an integer >= 1", c.method, c.path, r.retryAfter)
				}
				if r.errorMsg() == "" {
					t.Errorf("%s %s: 503 without an error message: %v", c.method, c.path, r.body)
				}
			}
		}},
	}
	for _, backend := range []struct {
		name  string
		start func(*testing.T) contractTarget
	}{
		{"mapd", mapdTarget},
		{"maprouter", routerTarget},
	} {
		t.Run(backend.name, func(t *testing.T) {
			tg := backend.start(t)
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) { c.run(t, tg) })
			}
		})
	}
}
