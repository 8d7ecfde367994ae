package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/gpusampling/sieve/api"
)

// batchResponse mirrors the /v1/batch response document.
type batchResponse struct {
	Items []api.BatchItemResult `json:"items"`
}

func postBatch(t *testing.T, url, body string) (int, batchResponse, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("batch response is not valid JSON: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, out, raw
}

// TestBatchMixedItems drives one batch through every item outcome: a fresh
// computation, an intra-batch duplicate (served from cache — items run in
// order, so the first fill is visible to the second), a workload-mode item,
// and a malformed item that fails alone without sinking its siblings.
func TestBatchMixedItems(t *testing.T) {
	ts := newTestServer(t, Config{})
	csv := testCSV()
	csvJSON, err := json.Marshal(csv)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"items":[
		{"profile_csv":%s},
		{"profile_csv":%s},
		{"workload":"lmc","scale":0.05},
		{"workload":"no-such-workload"}
	]}`, csvJSON, csvJSON)

	status, out, raw := postBatch(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	if len(out.Items) != 4 {
		t.Fatalf("items = %d, want 4", len(out.Items))
	}
	if out.Items[0].Status != http.StatusOK || out.Items[0].Cached {
		t.Fatalf("item 0 = %+v, want fresh 200", out.Items[0])
	}
	if out.Items[1].Status != http.StatusOK || !out.Items[1].Cached {
		t.Fatalf("item 1 = %+v, want cached 200 (duplicate of item 0)", out.Items[1])
	}
	if out.Items[1].PlanID != out.Items[0].PlanID || string(out.Items[1].Plan) != string(out.Items[0].Plan) {
		t.Fatal("duplicate items returned different plans")
	}
	if out.Items[2].Status != http.StatusOK || out.Items[2].PlanID == out.Items[0].PlanID {
		t.Fatalf("item 2 = %+v, want a distinct workload plan", out.Items[2])
	}
	if out.Items[3].Status != http.StatusBadRequest || out.Items[3].Error == "" {
		t.Fatalf("item 3 = %+v, want 400 with error", out.Items[3])
	}

	var m metricsDoc
	getJSON(t, ts.URL+"/debug/metrics", &m)
	if m.BatchItems != 4 {
		t.Fatalf("batch_items = %d, want 4", m.BatchItems)
	}
	if m.Requests != 1 { // one batch POST, however many items it carried
		t.Fatalf("requests = %d, want 1", m.Requests)
	}
	if m.Computations != 2 {
		t.Fatalf("computations = %d, want 2 (csv once, workload once)", m.Computations)
	}
	if m.CacheHits != 1 || m.CacheMisses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", m.CacheHits, m.CacheMisses)
	}

	// Batch-computed plans are addressable like any other.
	var env sampleEnvelope
	if status := getJSON(t, ts.URL+"/v1/plans/"+out.Items[0].PlanID, &env); status != http.StatusOK {
		t.Fatalf("batch plan not cached: %d", status)
	}

	// And a follow-up single request hits the batch's cache entry.
	status2, body2 := postCSV(t, ts.URL+"/v1/sample", csv)
	if status2 != http.StatusOK {
		t.Fatal("follow-up sample failed")
	}
	if err := json.Unmarshal(body2, &env); err != nil {
		t.Fatal(err)
	}
	if !env.Cached || env.PlanID != out.Items[0].PlanID {
		t.Fatal("single request did not reuse the batch's cache entry")
	}
}

func TestBatchValidation(t *testing.T) {
	ts := newTestServer(t, Config{MaxBatchItems: 2})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"broken JSON", "{", http.StatusBadRequest},
		{"no items", `{"items":[]}`, http.StatusBadRequest},
		{"over the item limit", `{"items":[{"workload":"lmc"},{"workload":"lmc"},{"workload":"lmc"}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, raw := postBatch(t, ts.URL, tc.body)
			if status != tc.want {
				t.Fatalf("status = %d, want %d: %s", status, tc.want, raw)
			}
			var doc map[string]string
			if err := json.Unmarshal(raw, &doc); err != nil || doc["error"] == "" {
				t.Fatalf("error body not a JSON {error}: %s", raw)
			}
		})
	}
}

// TestBatchSharesCacheWithSample: a plan computed by /v1/sample is a cache
// hit as a batch item — the two endpoints address one plan store.
func TestBatchSharesCacheWithSample(t *testing.T) {
	ts := newTestServer(t, Config{})
	csv := testCSV()
	status, body := postCSV(t, ts.URL+"/v1/sample", csv)
	if status != http.StatusOK {
		t.Fatal("warmup sample failed")
	}
	var env sampleEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}

	csvJSON, _ := json.Marshal(csv)
	status, out, raw := postBatch(t, ts.URL, fmt.Sprintf(`{"items":[{"profile_csv":%s}]}`, csvJSON))
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	if !out.Items[0].Cached || out.Items[0].PlanID != env.PlanID {
		t.Fatalf("batch item missed the sample's cache entry: %+v", out.Items[0])
	}
	if string(out.Items[0].Plan) != string(env.Plan) {
		t.Fatal("batch served a non-identical plan document")
	}
}

// TestBatchSingleSlotProgress pins the admission model: worker slots bound
// plan computations, not requests, so a batch of several computing items
// completes on a single-slot server — each item's flight leader takes the
// slot in turn, and the batch itself never holds one.
func TestBatchSingleSlotProgress(t *testing.T) {
	ts := newTestServer(t, Config{MaxConcurrent: 1})
	body := `{"items":[
		{"workload":"lmc","scale":0.05},
		{"workload":"lmc","scale":0.04}
	]}`
	status, out, raw := postBatch(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	for i, item := range out.Items {
		if item.Status != http.StatusOK {
			t.Fatalf("item %d = %+v, want 200 (slot starvation?)", i, item)
		}
	}
}

// TestBatchDoesNotHoldSlotAcrossFlightWait is the regression test for a slot
// deadlock the load harness exposed: serveBatch used to acquire one worker
// slot for its whole pass and hold it while items waited on the coalescing
// table, so a batch parked on a flight whose leader needed that very slot
// wedged the server until timeouts fired (under cache-hostile load, every
// slot ended up held by a waiter). Deterministic reproduction on a
// single-slot server: a sample request starts a flight whose leader is gated
// before slot acquisition, then a batch item joins that flight. The batch
// must wait slotless, so releasing the gate lets the leader take the slot
// and both requests finish promptly.
func TestBatchDoesNotHoldSlotAcrossFlightWait(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1})
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv.preCompute = func(string) {
		once.Do(func() { close(entered) })
		<-gate
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	csv := testCSV()

	var wg sync.WaitGroup
	var sampleStatus int
	wg.Add(1)
	go func() {
		defer wg.Done()
		sampleStatus, _ = postCSV(t, ts.URL+"/v1/sample", csv)
	}()
	<-entered // flight registered; its leader is parked before acquireSlot

	csvJSON, err := json.Marshal(csv)
	if err != nil {
		t.Fatal(err)
	}
	var batchStatus int
	var out batchResponse
	wg.Add(1)
	go func() {
		defer wg.Done()
		batchStatus, out, _ = postBatch(t, ts.URL, fmt.Sprintf(`{"items":[{"profile_csv":%s}]}`, csvJSON))
	}()
	waitFor(t, "batch item to join the sample's flight", func() bool {
		return srv.metrics.Coalesced.Value() >= 1
	})
	close(gate)
	wg.Wait()

	if sampleStatus != http.StatusOK {
		t.Fatalf("sample status = %d, want 200", sampleStatus)
	}
	if batchStatus != http.StatusOK || len(out.Items) != 1 {
		t.Fatalf("batch status = %d items = %+v, want 200 with one item", batchStatus, out.Items)
	}
	if it := out.Items[0]; it.Status != http.StatusOK || !it.Coalesced {
		t.Fatalf("batch item = %+v, want 200 coalesced", it)
	}
	if got := srv.metrics.Computations.Value(); got != 1 {
		t.Fatalf("computations = %d, want 1 (item must join the sample's flight)", got)
	}
}
