package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/gpusampling/sieve/api"
)

// replayBody is a request body that can be rewound in place, so one
// *http.Request replays the same POST without a per-call allocation.
type replayBody struct{ strings.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is a ResponseWriter that counts the body instead of keeping
// it, so measurements see only the handler's own allocations.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}
func (d *discardWriter) Write(p []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	d.n += len(p)
	return len(p), nil
}

// csvReplay returns the request it replays and a function that serves one
// text/csv POST of csv to /v1/sample on h — with trace as its api.TraceHeader
// when non-empty — and reports its status and response length. Callers may
// change the request's query between calls.
func csvReplay(h http.Handler, csv, trace string) (*http.Request, func() (status, n int)) {
	body := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/sample", body)
	req.Header.Set("Content-Type", "text/csv")
	if trace != "" {
		req.Header.Set(api.TraceHeader, trace)
	}
	req.ContentLength = int64(len(csv))
	w := &discardWriter{header: make(http.Header)}
	return req, func() (int, int) {
		body.Reset(csv)
		clear(w.header)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
		return w.status, w.n
	}
}

// sampledTrace is the api.TraceHeader value of a sampled request.
var sampledTrace = strings.Repeat("5a", 16) + "-01"

// The in-process hit's allocation counts (lmc fixture, csvReplay, Go 1.24):
// an unsampled hit builds no span tree; a sampled one pays for its
// collector, spans and report.
const (
	hitPathAllocCeiling        = 15
	sampledHitPathAllocCeiling = 54
)

// TestHitPathAllocBytes pins the cost of a cache hit on the lmc fixture: the
// heap bytes per hit stay within the body's own size plus 32 KiB (the body is
// read once, the key hashes it without a copy, and the response is the stored
// envelope), and the allocation count, unsampled and sampled, does not grow.
func TestHitPathAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	csv := loadFixtureCSV(t)
	for _, tc := range []struct {
		trace   string
		ceiling int
	}{{"", hitPathAllocCeiling}, {sampledTrace, sampledHitPathAllocCeiling}} {
		_, hit := csvReplay(New(Config{}).Handler(), csv, tc.trace)
		if status, _ := hit(); status != http.StatusOK { // the miss that fills the cache
			t.Fatalf("warm-up status = %d", status)
		}
		for i := 0; i < 5; i++ {
			hit()
		}

		const hits = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < hits; i++ {
			if status, n := hit(); status != http.StatusOK || n == 0 {
				t.Fatalf("hit %d: status %d, %d body bytes", i, status, n)
			}
		}
		runtime.ReadMemStats(&after)
		perHit := float64(after.TotalAlloc-before.TotalAlloc) / hits
		if limit := float64(len(csv) + 32<<10); perHit > limit {
			t.Errorf("trace %q: a hit allocates %.0f B, want ≤ %.0f (body %d B + 32 KiB)", tc.trace, perHit, limit, len(csv))
		}

		allocs := testing.AllocsPerRun(50, func() { hit() })
		if allocs > float64(tc.ceiling) {
			t.Errorf("trace %q: a hit makes %.0f allocations, want ≤ %d", tc.trace, allocs, tc.ceiling)
		}
		t.Logf("trace %q, per hit: %.0f B, %.0f allocs (body %d B)", tc.trace, perHit, allocs, len(csv))
	}
}

// missPathByteCeiling bounds the heap bytes of one unsampled lmc miss on a
// long-running server: body, rows, stratification, plan and cache entry. A
// miss allocated 2.0 MB while the CSV was parsed into a Record table first.
const missPathByteCeiling = 1 << 20

// TestMissPathAllocBytes pins the cost of a cache miss on a persistent
// server: each request salts the key with its own seed, so every one parses
// the lmc fixture, stratifies it and fills the cache.
func TestMissPathAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	req, miss := csvReplay(New(Config{}).Handler(), loadFixtureCSV(t), "")
	seed := 0
	serve := func() {
		seed++
		req.URL.RawQuery = "seed=" + strconv.Itoa(seed)
		if status, n := miss(); status != http.StatusOK || n == 0 {
			t.Fatalf("miss %d: status %d, %d body bytes", seed, status, n)
		}
	}
	for i := 0; i < 3; i++ {
		serve()
	}
	const misses = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < misses; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	perMiss := float64(after.TotalAlloc-before.TotalAlloc) / misses
	if perMiss > missPathByteCeiling {
		t.Errorf("a miss allocates %.0f B, want ≤ %d", perMiss, missPathByteCeiling)
	}
	t.Logf("per miss: %.0f B", perMiss)
}
