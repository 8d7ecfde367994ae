package load

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/gpusampling/sieve/internal/server"
)

// scrapeCounts tallies the read-only requests one replica received.
type scrapeCounts struct {
	metrics, debugMetrics, traces atomic.Int64
}

// startReplicas starts n in-process sieved replicas, peered into one ring
// when n > 1, each behind a handler that counts its scrape and trace reads.
func startReplicas(t *testing.T, n int) ([]string, []*scrapeCounts) {
	t.Helper()
	urls := make([]string, n)
	counts := make([]*scrapeCounts, n)
	srvs := make([]*server.Server, n)
	for i := range srvs {
		srvs[i] = server.New(server.Config{})
		h, c := srvs[i].Handler(), &scrapeCounts{}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet {
				switch {
				case r.URL.Path == "/metrics":
					c.metrics.Add(1)
				case r.URL.Path == "/debug/metrics":
					c.debugMetrics.Add(1)
				case strings.HasPrefix(r.URL.Path, "/debug/traces"):
					c.traces.Add(1)
				}
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i], counts[i] = ts.URL, c
	}
	if n > 1 {
		for i, s := range srvs {
			if err := s.SetPeers(urls[i], urls); err != nil {
				t.Fatal(err)
			}
		}
	}
	return urls, counts
}

// TestStageSharesEndToEnd drives a run against in-process sieved, alone and
// as two peered replicas, and checks the report's stage block: every stage
// is one the server times, the cache stage ran, no stage saw more requests
// than the server, and the exclusive stage shares partition request time.
// Each target must be read through exactly two /metrics scrapes and nothing
// else.
func TestStageSharesEndToEnd(t *testing.T) {
	known := map[string]bool{
		"decode": true, "cache": true, "slot": true, "flight": true,
		"compute": true, "proxy": true, "write": true,
	}
	for _, replicas := range []int{1, 2} {
		urls, counts := startReplicas(t, replicas)
		cfg := baseConfig(t, urls[0])
		cfg.Targets = urls
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		srv := rep.Server
		if srv.Requests <= 0 {
			t.Fatalf("%d replicas: server saw no requests", replicas)
		}
		if _, ok := srv.Stages["cache"]; !ok {
			t.Errorf("%d replicas: no cache stage in %v", replicas, srv.Stages)
		}
		var shareSum float64
		for name, st := range srv.Stages {
			if !known[name] {
				t.Errorf("%d replicas: unknown stage %q", replicas, name)
			}
			if st.Requests <= 0 || st.Requests > srv.Requests {
				t.Errorf("%d replicas: stage %s requests = %d with %d server requests",
					replicas, name, st.Requests, srv.Requests)
			}
			if st.Share < 0 || st.Share > 1 {
				t.Errorf("%d replicas: stage %s share = %g", replicas, name, st.Share)
			}
			shareSum += st.Share
		}
		if shareSum > 1.0001 {
			t.Errorf("%d replicas: stage shares sum to %g > 1", replicas, shareSum)
		}
		if d := srv.UnattributedShare - (1 - shareSum); d > 1e-9 || d < -1e-9 {
			t.Errorf("%d replicas: unattributed %g != 1 - %g", replicas, srv.UnattributedShare, shareSum)
		}
		if replicas > 1 && srv.PeerProxied == 0 {
			t.Errorf("peered run proxied nothing: %+v", srv)
		}

		table := srv.StageTable()
		for _, want := range []string{"stage", "requests", "mean_ms", "share", "cache"} {
			if !strings.Contains(table, want) {
				t.Errorf("%d replicas: table missing %q:\n%s", replicas, want, table)
			}
		}

		for i, c := range counts {
			if m, dm, tr := c.metrics.Load(), c.debugMetrics.Load(), c.traces.Load(); m != 2 || dm != 0 || tr != 0 {
				t.Errorf("%d replicas: target %d got %d /metrics, %d /debug/metrics, %d /debug/traces reads; want 2, 0, 0",
					replicas, i, m, dm, tr)
			}
		}
	}
}
