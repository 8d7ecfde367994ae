package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
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
// lookup and envelope write on the lmc fixture, with tracing on as served.
func BenchmarkServeHandlerHit(b *testing.B) {
	hit := csvReplay(New(Config{}).Handler(), loadFixtureCSV(b))
	hit() // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status, _ := hit(); status != http.StatusOK {
			b.Fatalf("status = %d", status)
		}
	}
}
