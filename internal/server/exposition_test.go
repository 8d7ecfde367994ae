package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/gpusampling/sieve/api"
)

// scrape GETs url and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// promShape masks the sample values of a Prometheus text exposition: every
// "# TYPE" line is kept whole, every sample line is cut to its series name
// and labels.
func promShape(text string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			out = append(out, line)
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			line = line[:i]
		}
		out = append(out, line)
	}
	return out
}

// jsonKeys lists a JSON document's object keys in document order, nested keys
// as parent.child, so key order is compared without the values.
func jsonKeys(t *testing.T, doc string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(doc))
	var keys, path []string
	var walk func()
	walk = func() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("decode %s: %v", doc, err)
		}
		if tok != json.Delim('{') {
			return
		}
		for dec.More() {
			k, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			path = append(path, k.(string))
			keys = append(keys, strings.Join(path, "."))
			walk()
			path = path[:len(path)-1]
		}
		if _, err := dec.Token(); err != nil { // closing brace
			t.Fatal(err)
		}
	}
	walk()
	return keys
}

// histogramSeries lists one explicit-bucket histogram's series at the
// latencyBuckets ladder; labels is "" or `stage="x",`.
func histogramSeries(name, labels string) []string {
	var out []string
	for _, le := range []string{
		"0.0005", "0.001", "0.0025", "0.005", "0.01", "0.025", "0.05", "0.1",
		"0.25", "0.5", "1", "2.5", "5", "10", "30", "60", "+Inf",
	} {
		out = append(out, name+"_bucket{"+labels+`le="`+le+`"}`)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	return append(out, name+"_sum"+suffix, name+"_count"+suffix)
}

// TestMetricsExposition pins both metric expositions of a server that has
// served a fixed request mix — CSV miss and hit, a twophase workload request,
// a 400, a plan-lookup 404 and one batch — against the expected series set
// and order with the values masked: /metrics's # TYPE lines and series
// names with labels, and /debug/metrics's keys in document order.
func TestMetricsExposition(t *testing.T) {
	ts := newTestServer(t, Config{})
	csv := testCSV()
	for i, want := range []int{http.StatusOK, http.StatusOK} { // miss, then hit
		if status, body := postCSV(t, ts.URL+"/v1/sample", csv); status != want {
			t.Fatalf("csv request %d: status %d, body %s", i, status, body)
		}
	}
	if status, body := postSample(t, ts.URL+"/v1/sample", map[string]any{
		"workload": "lmc", "scale": 0.01, "options": map[string]any{"method": "twophase"},
	}); status != http.StatusOK {
		t.Fatalf("twophase workload status %d, body %s", status, body)
	}
	if status, _ := postCSV(t, ts.URL+"/v1/sample", "not,a,profile\n1,2,3\n"); status != http.StatusBadRequest {
		t.Fatalf("malformed CSV status %d, want 400", status)
	}
	var errDoc map[string]string
	if status := getJSON(t, ts.URL+"/v1/plans/deadbeef", &errDoc); status != http.StatusNotFound {
		t.Fatalf("missing plan status %d, want 404", status)
	}
	if status, body := postSample(t, ts.URL+"/v1/batch", map[string]any{
		"items": []map[string]any{{"profile_csv": csv, "options": map[string]any{"method": "rss"}}},
	}); status != http.StatusOK {
		t.Fatalf("batch status %d, body %s", status, body)
	}

	want := []string{
		"# TYPE sieved_requests_total counter", "sieved_requests_total",
		"# TYPE sieved_failures_total counter", "sieved_failures_total",
		"# TYPE sieved_not_found_total counter", "sieved_not_found_total",
		"# TYPE sieved_cache_hits_total counter", "sieved_cache_hits_total",
		"# TYPE sieved_cache_misses_total counter", "sieved_cache_misses_total",
		"# TYPE sieved_computations_total counter", "sieved_computations_total",
		"# TYPE sieved_coalesced_total counter", "sieved_coalesced_total",
		"# TYPE sieved_batch_items_total counter", "sieved_batch_items_total",
		"# TYPE sieved_peer_fills_total counter", "sieved_peer_fills_total",
		"# TYPE sieved_peer_proxied_total counter", "sieved_peer_proxied_total",
		"# TYPE sieved_in_flight gauge", "sieved_in_flight",
		"# TYPE sieved_rejected_total counter", "sieved_rejected_total",
		"# TYPE sieved_rows_ingested_total counter", "sieved_rows_ingested_total",
		"# TYPE sieved_method_requests_total counter",
		`sieved_method_requests_total{method="rss"}`,
		`sieved_method_requests_total{method="sieve"}`,
		`sieved_method_requests_total{method="twophase"}`,
		"# TYPE sieved_cache_entries gauge", "sieved_cache_entries",
		"# TYPE sieved_goroutines gauge", "sieved_goroutines",
		"# TYPE sieved_uptime_seconds gauge", "sieved_uptime_seconds",
		"# TYPE sieved_build_info gauge", `sieved_build_info{version="` + api.Version + `"}`,
		"# TYPE sieved_request_seconds histogram",
	}
	want = append(want, histogramSeries("sieved_request_seconds", "")...)
	want = append(want, "# TYPE sieved_request_seconds_class_2xx histogram")
	want = append(want, histogramSeries("sieved_request_seconds_class_2xx", "")...)
	want = append(want, "# TYPE sieved_request_seconds_class_4xx histogram")
	want = append(want, histogramSeries("sieved_request_seconds_class_4xx", "")...)
	want = append(want, "# TYPE sieved_stage_seconds histogram")
	for _, stage := range []string{"cache", "compute", "decode", "flight", "slot", "write"} {
		want = append(want, histogramSeries("sieved_stage_seconds", `stage="`+stage+`",`)...)
	}
	if got := promShape(scrape(t, ts.URL+"/metrics")); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("/metrics series:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	wantKeys := []string{
		"requests", "failures", "not_found", "cache_hits", "cache_misses", "cache_entries",
		"computations", "coalesced", "batch_items", "peer_fills", "peer_proxied",
		"in_flight", "rejected", "rows_ingested",
		"method_requests", "method_requests.rss", "method_requests.sieve", "method_requests.twophase",
		"latency_ms", "latency_ms.p50", "latency_ms.p99",
	}
	if got := jsonKeys(t, scrape(t, ts.URL+"/debug/metrics")); strings.Join(got, " ") != strings.Join(wantKeys, " ") {
		t.Errorf("/debug/metrics keys:\n%v\nwant:\n%v", got, wantKeys)
	}
}

// TestScrapeStageCountsWithinRequests scrapes /metrics while cache hits are
// being served and requires every scrape to be self-consistent: a request
// is counted in sieved_requests_total when it starts, then in
// sieved_request_seconds and last in sieved_stage_seconds when it finishes,
// so no stage can have more observations than either — unless the scrape
// reads a later-fed series before an earlier-fed one and a request starts
// or finishes in between.
func TestScrapeStageCountsWithinRequests(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	csv := testCSV()
	post := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/sample", strings.NewReader(csv))
		req.Header.Set("Content-Type", "text/csv")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post(); code != http.StatusOK {
		t.Fatalf("priming miss: status %d", code)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code := post(); code != http.StatusOK {
					t.Errorf("hit: status %d", code)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 500; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var requests, observed int64 = -1, -1
		stages := map[string]int64{}
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			name, v, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(line, "#") {
				continue
			}
			switch {
			case name == "sieved_requests_total":
				requests = mustInt(t, line, v)
			case name == requestSecondsMetric+"_count":
				observed = mustInt(t, line, v)
			case strings.HasPrefix(name, stageSecondsMetric+"_count{"):
				stages[name] = mustInt(t, line, v)
			}
		}
		if requests < 0 || observed < 0 || len(stages) == 0 {
			t.Fatalf("scrape %d lacks request or stage counts:\n%s", i, rec.Body.String())
		}
		if observed > requests {
			t.Fatalf("scrape %d: %s_count = %d exceeds sieved_requests_total = %d", i, requestSecondsMetric, observed, requests)
		}
		for name, n := range stages {
			if n > observed {
				t.Fatalf("scrape %d: %s = %d exceeds %s_count = %d", i, name, n, requestSecondsMetric, observed)
			}
		}
	}
}

func mustInt(t *testing.T, line, v string) int64 {
	t.Helper()
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("sample %q: %v", line, err)
	}
	return n
}
