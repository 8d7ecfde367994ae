package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/gpusampling/sieve/internal/sampler"
)

// loadFixtureCSV reads the checked-in lmc profile (2485 invocations).
func loadFixtureCSV(tb testing.TB) string {
	tb.Helper()
	body, err := os.ReadFile("../../testdata/profile_lmc_scale0.01.csv")
	if err != nil {
		tb.Fatal(err)
	}
	return string(body)
}

func benchPost(b *testing.B, url, csv string, wantCached bool) {
	b.Helper()
	resp, err := http.Post(url, "text/csv", strings.NewReader(csv))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status = %d", resp.StatusCode)
	}
}

// BenchmarkServeSampleMiss measures a full request: decode, hash, stratify
// the 2485-row lmc profile, marshal, cache. A fresh server per iteration
// keeps every POST a cache miss.
func BenchmarkServeSampleMiss(b *testing.B) {
	csv := loadFixtureCSV(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts := httptest.NewServer(New(Config{}).Handler())
		b.StartTimer()
		benchPost(b, ts.URL+"/v1/sample", csv, false)
		b.StopTimer()
		ts.Close()
		b.StartTimer()
	}
}

// BenchmarkServeSampleHit measures the cache-hit fast path: content hash +
// LRU lookup + response write, no stratification.
func BenchmarkServeSampleHit(b *testing.B) {
	csv := loadFixtureCSV(b)
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	benchPost(b, ts.URL+"/v1/sample", csv, false) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/sample", csv, true)
	}
}

// BenchmarkServeHandlerHit measures the cache hit in process, without the
// loopback socket BenchmarkServeSampleHit includes: body read, key hash, LRU
// lookup and envelope write on the lmc fixture. The unsampled hit is what
// untraced traffic pays; the sampled one adds its span tree.
func BenchmarkServeHandlerHit(b *testing.B) {
	csv := loadFixtureCSV(b)
	for _, bc := range []struct{ name, trace string }{{"unsampled", ""}, {"sampled", sampledTrace}} {
		b.Run(bc.name, func(b *testing.B) {
			_, hit := csvReplay(New(Config{}).Handler(), csv, bc.trace)
			hit() // warm the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if status, _ := hit(); status != http.StatusOK {
					b.Fatalf("status = %d", status)
				}
			}
		})
	}
}

// BenchmarkServeHandlerMiss measures an unsampled cache miss in process on
// one long-running server: each request salts the key with its own seed, so
// every one parses the lmc fixture, stratifies it, marshals the plan and
// fills the cache, evicting as a busy server does once the cache is full.
func BenchmarkServeHandlerMiss(b *testing.B) {
	req, miss := csvReplay(New(Config{}).Handler(), loadFixtureCSV(b), "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.URL.RawQuery = "seed=" + strconv.Itoa(i)
		if status, _ := miss(); status != http.StatusOK {
			b.Fatalf("status = %d", status)
		}
	}
}

// BenchmarkServeHandlerWorkloadMiss measures an unsampled workload-mode miss
// in process, one sub-benchmark per method, on gru at scale 0.02 (877
// invocations). Each request salts the key with its own seed, so every one
// misses the plan cache and plans from the cached workload profile, which the
// untimed first request fills.
func BenchmarkServeHandlerWorkloadMiss(b *testing.B) {
	for _, method := range sampler.Names() {
		b.Run(method, func(b *testing.B) {
			h := New(Config{}).Handler()
			w := &discardWriter{header: make(http.Header)}
			serve := func(seed int) {
				body := `{"workload":"gru","scale":0.02,"options":{"method":"` + method + `","seed":` + strconv.Itoa(seed) + `}}`
				req := httptest.NewRequest(http.MethodPost, "/v1/sample", strings.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				clear(w.header)
				w.status, w.n = 0, 0
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("seed %d: status = %d", seed, w.status)
				}
			}
			serve(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				serve(i)
			}
		})
	}
}
