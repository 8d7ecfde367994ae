package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/sampler"
)

// postSample POSTs a JSON sample request built from src (profile_csv or
// workload fields) and opts, returning status and body.
func postSample(t *testing.T, url string, req map[string]any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// planDoc is the subset of the plan wire document the method tests inspect.
type planDoc struct {
	Method        string `json:"method"`
	NumStrata     int    `json:"num_strata"`
	ErrorInterval *struct {
		Mean      float64 `json:"mean"`
		StdErr    float64 `json:"std_err"`
		Low       float64 `json:"low"`
		High      float64 `json:"high"`
		Resamples int     `json:"resamples"`
	} `json:"error_interval"`
}

// TestSampleMethodPlanIDs pins the cache-key contract of the methodology
// knob: an explicit "sieve" hashes exactly like the absent default (one cache
// entry, not two), while twophase and rss address distinct plans whose
// documents carry the method label — and, for these interval-bearing
// strategies, an error_interval.
func TestSampleMethodPlanIDs(t *testing.T) {
	ts := newTestServer(t, Config{})
	csv := testCSV()

	sample := func(method string) (string, planDoc, bool) {
		req := map[string]any{"profile_csv": csv}
		opts := map[string]any{}
		if method != "" {
			opts["method"] = method
		}
		req["options"] = opts
		status, body := postSample(t, ts.URL+"/v1/sample", req)
		if status != http.StatusOK {
			t.Fatalf("method %q status %d, body %s", method, status, body)
		}
		var env sampleEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		var doc planDoc
		if err := json.Unmarshal(env.Plan, &doc); err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(env.Plan, &raw); err != nil {
			t.Fatal(err)
		}
		_, hasMethod := raw["method"]
		return env.PlanID, doc, hasMethod
	}

	defaultID, defaultDoc, defaultHasMethod := sample("")
	explicitID, _, _ := sample("sieve")
	twophaseID, twophaseDoc, _ := sample("twophase")
	rssID, rssDoc, _ := sample("rss")

	if explicitID != defaultID {
		t.Errorf(`explicit method "sieve" got plan id %s, want the default's %s (must share one cache entry)`, explicitID, defaultID)
	}
	if defaultHasMethod {
		t.Error(`default-method plan document carries a "method" key; pre-subsystem bytes must be unchanged`)
	}
	if defaultDoc.ErrorInterval != nil {
		t.Error("default-method plan document carries an error_interval")
	}
	if twophaseID == defaultID || rssID == defaultID || twophaseID == rssID {
		t.Errorf("method plan ids not distinct: sieve=%s twophase=%s rss=%s", defaultID, twophaseID, rssID)
	}
	if twophaseDoc.Method != "twophase" || rssDoc.Method != "rss" {
		t.Errorf("plan method labels = %q/%q, want twophase/rss", twophaseDoc.Method, rssDoc.Method)
	}
	if twophaseDoc.ErrorInterval == nil {
		t.Error("twophase plan lost its error_interval")
	} else if iv := twophaseDoc.ErrorInterval; iv.High <= iv.Low {
		t.Errorf("twophase interval inverted: [%g, %g]", iv.Low, iv.High)
	}
	if rssDoc.ErrorInterval == nil {
		t.Error("rss plan lost its error_interval")
	} else if rssDoc.ErrorInterval.Resamples == 0 {
		t.Error("rss interval reports zero resamples")
	}
}

// TestSampleMethodPKS runs the pks methodology in workload mode and checks
// the CSV-mode rejection: pks needs server-side feature profiling, so a CSV
// source is the caller's error, not a 500.
func TestSampleMethodPKS(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, body := postSample(t, ts.URL+"/v1/sample", map[string]any{
		"workload": "lmc", "scale": 0.01,
		"options": map[string]any{"method": "pks"},
	})
	if status != http.StatusOK {
		t.Fatalf("pks workload-mode status %d, body %s", status, body)
	}
	var env sampleEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	var doc planDoc
	if err := json.Unmarshal(env.Plan, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Method != "pks" {
		t.Errorf("plan method = %q, want pks", doc.Method)
	}
	if doc.NumStrata == 0 {
		t.Error("pks plan has no strata")
	}

	status, body = postSample(t, ts.URL+"/v1/sample", map[string]any{
		"profile_csv": testCSV(),
		"options":     map[string]any{"method": "pks"},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("pks over CSV status %d, want 400; body %s", status, body)
	}
	if !strings.Contains(string(body), "workload mode") {
		t.Errorf("pks CSV rejection lost its explanation: %s", body)
	}
}

// TestSampleMethodValidation pins the 400s: unknown method names and stream
// mode under a non-default method.
func TestSampleMethodValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, body := postSample(t, ts.URL+"/v1/sample", map[string]any{
		"profile_csv": testCSV(),
		"options":     map[string]any{"method": "bogus"},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown method status %d, want 400; body %s", status, body)
	}
	if !strings.Contains(string(body), "bogus") {
		t.Errorf("unknown-method error does not name the method: %s", body)
	}

	status, body = postSample(t, ts.URL+"/v1/sample", map[string]any{
		"profile_csv": testCSV(),
		"options":     map[string]any{"method": "rss", "stream": true},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("stream+rss status %d, want 400; body %s", status, body)
	}
	if !strings.Contains(string(body), "stream") {
		t.Errorf("stream rejection lost its explanation: %s", body)
	}
}

// TestSampleMethodQueryParam drives the raw-CSV request shape: ?method= must
// reach the same resolution path as the JSON envelope's options.method.
func TestSampleMethodQueryParam(t *testing.T) {
	ts := newTestServer(t, Config{})
	post := func(query string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sample"+query, "text/csv", strings.NewReader(testCSV()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	status, body := post("?method=twophase")
	if status != http.StatusOK {
		t.Fatalf("?method=twophase status %d, body %s", status, body)
	}
	var env sampleEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	var doc planDoc
	if err := json.Unmarshal(env.Plan, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Method != "twophase" {
		t.Errorf("plan method = %q, want twophase", doc.Method)
	}
	if doc.ErrorInterval == nil {
		t.Error("query-selected twophase plan lost its error_interval")
	}

	if status, body := post("?method=bogus"); status != http.StatusBadRequest {
		t.Fatalf("?method=bogus status %d, want 400; body %s", status, body)
	}
}

// TestMethodRequestCounters checks the per-method observability: the
// method_requests map on /debug/metrics and the labeled
// sieved_method_requests_total series on /metrics, fed by both the single
// and the batch path.
func TestMethodRequestCounters(t *testing.T) {
	ts := newTestServer(t, Config{})
	csv := testCSV()
	for _, method := range []string{"", "twophase", "twophase"} {
		opts := map[string]any{}
		if method != "" {
			opts["method"] = method
		}
		status, body := postSample(t, ts.URL+"/v1/sample", map[string]any{"profile_csv": csv, "options": opts})
		if status != http.StatusOK {
			t.Fatalf("method %q status %d, body %s", method, status, body)
		}
	}
	// One rss item through the batch path must land in the same counters.
	status, body := postSample(t, ts.URL+"/v1/batch", map[string]any{
		"items": []map[string]any{
			{"profile_csv": csv, "options": map[string]any{"method": "rss"}},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("batch status %d, body %s", status, body)
	}

	var m struct {
		MethodRequests map[string]int64 `json:"method_requests"`
	}
	if status := getJSON(t, ts.URL+"/debug/metrics", &m); status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	want := map[string]int64{"sieve": 1, "twophase": 2, "rss": 1}
	for method, n := range want {
		if m.MethodRequests[method] != n {
			t.Errorf("method_requests[%q] = %d, want %d", method, m.MethodRequests[method], n)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`sieved_method_requests_total{method="sieve"} 1`,
		`sieved_method_requests_total{method="twophase"} 2`,
		`sieved_method_requests_total{method="rss"} 1`,
	} {
		if !strings.Contains(string(text), line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
}

// TestStreamRejectsNonSieveMethods: stream mode under any method
// but sieve is a 400 carrying sampler.Check's one message, for both
// profile sources. resolve answers it before the request is hashed, so no
// cache lookup or computation is counted.
func TestStreamRejectsNonSieveMethods(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, method := range sampler.Names() {
		if method == core.MethodSieve {
			continue
		}
		want := sampler.Check(method, true).Error()
		for _, src := range []map[string]any{{"profile_csv": testCSV()}, {"workload": "lmc", "scale": 0.01}} {
			src["options"] = map[string]any{"method": method, "stream": true}
			status, body := postSample(t, ts.URL+"/v1/sample", src)
			var e api.Error
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatal(err)
			}
			if status != http.StatusBadRequest || e.Message != want {
				t.Errorf("%s stream %v: status %d, error %q; want 400 and %q", method, src, status, e.Message, want)
			}
		}
	}
	if m, c := srv.metrics.CacheMisses.Value(), srv.metrics.Computations.Value(); m != 0 || c != 0 {
		t.Errorf("rejected requests counted %d cache misses and %d computations, want 0", m, c)
	}
}
