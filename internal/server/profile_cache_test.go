package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/sampler"
)

// cachedProfile returns the profile cache's entry for the workload at scale
// on ampere.
func cachedProfile(srv *Server, workload string, scale float64) (*sieve.MethodProfile, bool) {
	return srv.profiles.get(profileKey(workload, scale, "ampere"))
}

// cloneProfile deep-copies a profile, so a later comparison catches a
// mutation of any row, feature value or golden cycle count.
func cloneProfile(p *sieve.MethodProfile) *sieve.MethodProfile {
	out := &sieve.MethodProfile{
		Rows:         append([]sieve.InvocationProfile(nil), p.Rows...),
		GoldenCycles: append([]float64(nil), p.GoldenCycles...),
	}
	for _, f := range p.Features {
		out.Features = append(out.Features, append([]float64(nil), f...))
	}
	return out
}

// post sends body as a JSON request and returns the response status and
// body. It reports failures as errors, so goroutines other than the test's
// own may call it.
func post(url, body string) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// postDecode posts body and decodes a 200 response into out.
func postDecode(url, body string, out any) error {
	status, raw, err := post(url, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, raw)
	}
	return json.Unmarshal(raw, out)
}

// TestProfileCacheSharedAcrossMethods: every method, on /v1/sample and as
// /v1/batch items, and /v1/characterize plan concurrently from one cached
// workload profile. Each plan equals the in-process plan from a freshly
// generated profile, characterize answers what a server that generated its
// own profile answers, and the cached profile is deeply equal to a snapshot
// taken before the run: no sampler mutates the shared value. Run under -race
// it also checks the sharing itself.
func TestProfileCacheSharedAcrossMethods(t *testing.T) {
	const workload, scale = "gru", 0.02
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// The first request fills the profile cache.
	warm := api.SampleRequest{Workload: workload, Scale: scale}
	body, err := json.Marshal(warm)
	if err != nil {
		t.Fatal(err)
	}
	servedPlan(t, ts.URL+"/v1/sample", "application/json", string(body))
	cached, ok := cachedProfile(srv, workload, scale)
	if !ok || len(cached.Features) != len(cached.Rows) || len(cached.GoldenCycles) != len(cached.Rows) {
		t.Fatalf("no complete cached profile after the first request (cached %v)", ok)
	}
	snapshot := cloneProfile(cached)

	type job struct {
		name string
		req  api.SampleRequest
		want []byte
	}
	var jobs []job
	for _, method := range sampler.Names() {
		for _, seed := range []uint64{1, identitySeed} {
			req := api.SampleRequest{Workload: workload, Scale: scale, Options: api.RequestOptions{Method: method, Seed: seed}}
			jobs = append(jobs, job{fmt.Sprintf("%s/seed=%d", method, seed), req, inProcessPlan(t, srv, req)})
		}
	}
	charBody, err := json.Marshal(api.SampleRequest{Workload: workload, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	status, wantChar, err := post(newTestServer(t, Config{}).URL+"/v1/characterize", string(charBody))
	if err != nil || status != http.StatusOK {
		t.Fatalf("characterize on a fresh server: status %d, err %v", status, err)
	}

	var wg sync.WaitGroup
	for _, j := range jobs {
		body, err := json.Marshal(j.req)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := json.Marshal(api.BatchRequest{Items: []api.SampleRequest{j.req}})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(j job) {
			defer wg.Done()
			var env api.PlanEnvelope
			err := postDecode(ts.URL+"/v1/sample", string(body), &env)
			if err != nil || string(env.Plan) != string(j.want) {
				t.Errorf("%s /v1/sample: err %v, plan differs from the in-process plan:\n got %s\nwant %s", j.name, err, env.Plan, j.want)
			}
		}(j)
		go func(j job) {
			defer wg.Done()
			var br batchResponse
			err := postDecode(ts.URL+"/v1/batch", string(batch), &br)
			if err != nil || len(br.Items) != 1 || string(br.Items[0].Plan) != string(j.want) {
				t.Errorf("%s /v1/batch: err %v, items %+v; want the in-process plan %s", j.name, err, br.Items, j.want)
			}
		}(j)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, got, err := post(ts.URL+"/v1/characterize", string(charBody))
			if err != nil || status != http.StatusOK || string(got) != string(wantChar) {
				t.Errorf("/v1/characterize: status %d, err %v, body differs:\n got %.300s\nwant %.300s", status, err, got, wantChar)
			}
		}()
	}
	wg.Wait()

	after, ok := cachedProfile(srv, workload, scale)
	if !ok || after != cached {
		t.Fatalf("the cached profile was replaced or evicted (present %v)", ok)
	}
	if !reflect.DeepEqual(after, snapshot) {
		t.Fatal("a request mutated the shared cached profile")
	}
	if n := srv.profiles.len(); n != 1 {
		t.Fatalf("profile cache holds %d entries, want 1", n)
	}
}

// TestProfileCacheBound: requests for more distinct workloads than the
// budget (Config.MaxBodyBytes) fits keep the cache's estimated bytes within
// it and evict the least recently used profiles first; a profile larger than
// the whole budget is served correctly and leaves the cache as it was.
func TestProfileCacheBound(t *testing.T) {
	names := []string{"dwt2d", "bfs_ny", "heartwall", "lud"}
	cost := map[string]int64{}
	for _, name := range names {
		w, err := sieve.GenerateWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		cost[name] = int64(len(w.Invocations)) * profileRowBytes
	}
	budget := cost[names[0]] + cost[names[1]] + cost[names[2]]
	srv := New(Config{MaxBodyBytes: budget})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	seed := uint64(0)
	request := func(name string, scale float64, method string) {
		t.Helper()
		seed++ // a new plan id each time, so every request reaches the profile
		req := api.SampleRequest{Workload: name, Scale: scale, Options: api.RequestOptions{Method: method, Seed: seed}}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got := servedPlan(t, ts.URL+"/v1/sample", "application/json", string(body))
		if want := inProcessPlan(t, srv, req); string(got) != string(want) {
			t.Fatalf("%s@%g %s: served plan differs from the in-process plan", name, scale, method)
		}
		if used := srv.profiles.cost(); used > budget {
			t.Fatalf("after %s@%g: profile cache holds %d estimated bytes, budget %d", name, scale, used, budget)
		}
	}
	present := func(name string) bool {
		_, ok := cachedProfile(srv, name, 1)
		return ok
	}

	for _, name := range names[:3] {
		request(name, 1, "")
	}
	if used := srv.profiles.cost(); used != budget {
		t.Fatalf("three profiles cost %d estimated bytes, want %d", used, budget)
	}
	request(names[0], 1, "twophase") // a profile hit promotes dwt2d; bfs_ny is now coldest
	request(names[3], 1, "")
	if present(names[1]) {
		t.Errorf("%s survived although it was the least recently used", names[1])
	}
	if !present(names[0]) || !present(names[3]) {
		t.Errorf("the recently used %s or the new %s was evicted", names[0], names[3])
	}

	before := map[string]bool{}
	for _, name := range names {
		before[name] = present(name)
	}
	n, used := srv.profiles.len(), srv.profiles.cost()
	for _, method := range []string{"", "pks"} {
		request("gru", 0.02, method) // ~880 rows: far beyond a budget of tens of rows
	}
	if _, ok := cachedProfile(srv, "gru", 0.02); ok {
		t.Error("a profile larger than the whole budget was kept")
	}
	if srv.profiles.len() != n || srv.profiles.cost() != used {
		t.Errorf("an oversized profile changed the cache: %d entries / %d bytes, was %d / %d", srv.profiles.len(), srv.profiles.cost(), n, used)
	}
	for _, name := range names {
		if present(name) != before[name] {
			t.Errorf("an oversized profile changed whether %s is cached", name)
		}
	}
}

// TestArchNamesOnly: sieved accepts only the built-in architecture names. A
// path to a valid architecture description, which sieve.ResolveArch (and so
// cmd/sieve) still accepts, is answered 400 on every endpoint and in both
// request shapes, so a request cannot make the server open a file.
func TestArchNamesOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arch.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sieve.WriteArchJSON(sieve.Ampere(), f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sieve.ResolveArch(path); err != nil {
		t.Fatalf("the library rejects the arch file: %v", err)
	}
	ts := newTestServer(t, Config{})

	for _, arch := range []string{"", "ampere", "turing"} {
		req := map[string]any{"workload": "gst", "scale": 1, "options": map[string]any{"arch": arch}}
		if status, body := postSample(t, ts.URL+"/v1/sample", req); status != http.StatusOK {
			t.Errorf("arch %q: status %d, want 200; body %.200s", arch, status, body)
		}
	}
	req := map[string]any{"workload": "gst", "scale": 1, "options": map[string]any{"arch": path}}
	for _, endpoint := range []string{"/v1/sample", "/v1/characterize"} {
		if status, body := postSample(t, ts.URL+endpoint, req); status != http.StatusBadRequest {
			t.Errorf("%s with an arch path: status %d, want 400; body %.200s", endpoint, status, body)
		}
	}
	if status, body := postCSV(t, ts.URL+"/v1/sample?arch="+path, testCSV()); status != http.StatusBadRequest {
		t.Errorf("text/csv with an arch path: status %d, want 400; body %.200s", status, body)
	}
	status, br, raw := postBatch(t, ts.URL, `{"items":[{"workload":"gst","scale":1,"options":{"arch":`+strconv.Quote(path)+`}}]}`)
	if status != http.StatusOK || len(br.Items) != 1 || br.Items[0].Status != http.StatusBadRequest {
		t.Errorf("batch item with an arch path: status %d, body %.200s; want one 400 item", status, raw)
	}
}
