package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// exposition maps each sample of a Prometheus text exposition, keyed by its
// name and labels exactly as written (`sieved_stage_seconds_sum{stage="cache"}`),
// to its value.
type exposition map[string]float64

// parseExposition reads the text exposition format: one "key value" sample
// per line, with comments and blank lines skipped.
func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: sample %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// scrape fetches and sums every replica's /metrics exposition.
func (c *replicaSet) scrape(ctx context.Context) (exposition, error) {
	sum := exposition{}
	for _, r := range c.replicas {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := r.http.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", r.url, err)
		}
		e, err := parseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", r.url, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("scrape %s: status %d", r.url, resp.StatusCode)
		}
		for k, v := range e {
			sum[k] += v
		}
	}
	return sum, nil
}

// serverStages are sieved's serving stages. Each request's stage times are
// exclusive, so together with the unattributed rest they partition the
// request's wall time.
var serverStages = []string{"decode", "cache", "slot", "flight", "compute", "proxy", "write"}

// serverLayers derives the server's per-layer metrics from two scrapes taken
// around a window: mean milliseconds per request per stage, the unattributed
// rest (key hashing, routing, tracing), and per-request ratios of the cache,
// coalescing and peer counters.
func serverLayers(before, after exposition) map[string]float64 {
	d := func(key string) float64 { return after[key] - before[key] }
	reqs := d("sieved_request_seconds_count")
	perReq := func(v float64) float64 {
		if reqs == 0 {
			return 0
		}
		return v / reqs
	}
	out := map[string]float64{"server.request_ms": perReq(d("sieved_request_seconds_sum")) * 1e3}
	var staged float64
	for _, st := range serverStages {
		v := perReq(d(`sieved_stage_seconds_sum{stage="`+st+`"}`)) * 1e3
		out["server."+st+"_ms"] = v
		staged += v
	}
	out["server.unattributed_ms"] = out["server.request_ms"] - staged

	hits, misses := d("sieved_cache_hits_total"), d("sieved_cache_misses_total")
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["server.hit_rate"] = ratio(hits, hits+misses)
	out["server.computations_per_lookup"] = ratio(d("sieved_computations_total"), hits+misses)
	total := d("sieved_requests_total")
	out["server.proxied_per_req"] = ratio(d("sieved_peer_proxied_total"), total)
	out["server.fills_per_req"] = ratio(d("sieved_peer_fills_total"), total)
	out["server.coalesced_per_req"] = ratio(d("sieved_coalesced_total"), total)
	out["server.failures_per_req"] = ratio(d("sieved_failures_total"), total)
	out["server.rejected"] = d("sieved_rejected_total")
	return out
}
