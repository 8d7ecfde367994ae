package server

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixtures under testdata/golden_*.json were captured from the service
// BEFORE the wire types moved into the api package. These tests replay the
// same requests and demand byte-identical responses, so the extraction is
// provably invisible to existing clients and to the peer protocol.
//
// Regenerating the fixtures is deliberately manual (they are the contract):
// capture fresh bytes only when the wire format changes on purpose.

func golden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenSampleWire pins the /v1/sample envelope: a computed (cache-miss)
// response and the byte-identical cache-hit re-read.
func TestGoldenSampleWire(t *testing.T) {
	ts := newTestServer(t, Config{})
	csv := testCSV()

	_, miss := postCSV(t, ts.URL+"/v1/sample?theta=0.45", csv)
	if want := golden(t, "golden_sample_miss.json"); string(miss) != string(want) {
		t.Fatalf("cache-miss envelope drifted from pre-api-package bytes:\n got %s\nwant %s", miss, want)
	}
	_, hit := postCSV(t, ts.URL+"/v1/sample?theta=0.45", csv)
	if want := golden(t, "golden_sample_hit.json"); string(hit) != string(want) {
		t.Fatalf("cache-hit envelope drifted from pre-api-package bytes:\n got %s\nwant %s", hit, want)
	}
}

// TestGoldenStreamWire pins the stream-mode /v1/sample envelopes, plan ids
// included, for a text/csv body and a workload, each with a reservoir small
// enough to sample the plan. The fixture was captured before stream mode
// planned through sampler.Run.
func TestGoldenStreamWire(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, csv := postCSV(t, ts.URL+"/v1/sample?stream=true&reservoir_size=2&seed=7", testCSV())
	resp, err := http.Post(ts.URL+"/v1/sample", "application/json",
		strings.NewReader(`{"workload":"gru","scale":0.01,"options":{"stream":true,"reservoir_size":8,"seed":7}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	workload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(csv)+string(workload), string(golden(t, "golden_sample_stream.json")); got != want {
		t.Fatalf("stream envelopes drifted:\n got %s\nwant %s", got, want)
	}
}

// TestGoldenErrorWire pins the {"error": …} failure document.
func TestGoldenErrorWire(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, body := postCSV(t, ts.URL+"/v1/sample?theta=-1", testCSV())
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
	if want := golden(t, "golden_error.json"); string(body) != string(want) {
		t.Fatalf("error document drifted:\n got %s\nwant %s", body, want)
	}
}

// TestGoldenBatchWire pins the streamed /v1/batch response — a cache-served
// item plus a failing item — against the pre-extraction bytes. The fixture
// was captured with a warm cache, so the plan is POSTed once first.
func TestGoldenBatchWire(t *testing.T) {
	ts := newTestServer(t, Config{})
	postCSV(t, ts.URL+"/v1/sample?theta=0.45", testCSV())
	csvJSON, err := json.Marshal(testCSV())
	if err != nil {
		t.Fatal(err)
	}
	breq := `{"items":[{"profile_csv":` + string(csvJSON) + `,"options":{"theta":0.45}},{"options":{"theta":0.45}}]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(breq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "golden_batch.json"); string(body) != string(want) {
		t.Fatalf("batch response drifted:\n got %s\nwant %s", body, want)
	}
}

// TestGoldenCharacterizeWire pins the /v1/characterize response.
func TestGoldenCharacterizeWire(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/characterize", "text/csv", strings.NewReader(testCSV()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "golden_characterize.json"); string(body) != string(want) {
		t.Fatalf("characterize response drifted:\n got %s\nwant %s", body, want)
	}
}
