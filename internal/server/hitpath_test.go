package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
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

// csvReplay returns a function that serves one text/csv POST of csv to
// /v1/sample on h and reports its status and response length.
func csvReplay(h http.Handler, csv string) func() (status, n int) {
	body := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/sample", body)
	req.Header.Set("Content-Type", "text/csv")
	req.ContentLength = int64(len(csv))
	w := &discardWriter{header: make(http.Header)}
	return func() (int, int) {
		body.Reset(csv)
		clear(w.header)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
		return w.status, w.n
	}
}

// hitPathAllocCeiling is the in-process hit's allocation count (lmc fixture,
// csvReplay, Go 1.24) before the cache stored ready-to-send envelopes; the
// hit path must not grow past it.
const hitPathAllocCeiling = 88

// TestHitPathAllocBytes pins the cost of a cache hit on the lmc fixture: the
// heap bytes per hit stay within the body's own size plus 32 KiB (the body is
// read once, the key hashes it without a copy, and the response is the stored
// envelope), and the allocation count does not grow.
func TestHitPathAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	csv := loadFixtureCSV(t)
	hit := csvReplay(New(Config{}).Handler(), csv)
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
		t.Errorf("a hit allocates %.0f B, want ≤ %.0f (body %d B + 32 KiB)", perHit, limit, len(csv))
	}

	allocs := testing.AllocsPerRun(50, func() { hit() })
	if allocs > hitPathAllocCeiling {
		t.Errorf("a hit makes %.0f allocations, want ≤ %d", allocs, hitPathAllocCeiling)
	}
	t.Logf("per hit: %.0f B, %.0f allocs (body %d B)", perHit, allocs, len(csv))
}
