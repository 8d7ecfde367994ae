package load

import (
	"context"
	"time"

	"github.com/gpusampling/sieve/api"
)

// ReportSchema versions the BENCH_load.json document.
const ReportSchema = "sieve-load/v1"

// Percentiles is a latency quantile summary in milliseconds.
type Percentiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
}

// WorkloadReport summarizes one scenario's run.
type WorkloadReport struct {
	Requests    int64            `json:"requests"`
	Errors      int64            `json:"errors"`
	Dropped     int64            `json:"dropped"`
	ByClass     map[string]int64 `json:"by_class"`
	LatencyMS   Percentiles      `json:"latency_ms"`
	OfferedQPS  float64          `json:"offered_qps"`
	AchievedQPS float64          `json:"achieved_qps"`
}

// TargetDelta is one replica's /debug/metrics movement across the run.
type TargetDelta struct {
	Target       string `json:"target"`
	Requests     int64  `json:"requests"`
	Failures     int64  `json:"failures"`
	CacheHits    int64  `json:"cache_hits"`
	CacheMisses  int64  `json:"cache_misses"`
	Computations int64  `json:"computations"`
	Coalesced    int64  `json:"coalesced"`
	BatchItems   int64  `json:"batch_items"`
	PeerFills    int64  `json:"peer_fills"`
	PeerProxied  int64  `json:"peer_proxied"`
	Rejected     int64  `json:"rejected"`
}

// ServerSummary aggregates the targets' metric deltas and derives the rates
// the zipfian-vs-uniform comparison reads.
type ServerSummary struct {
	Targets      []TargetDelta `json:"targets"`
	Requests     int64         `json:"requests"`
	Failures     int64         `json:"failures"`
	CacheHits    int64         `json:"cache_hits"`
	CacheMisses  int64         `json:"cache_misses"`
	Computations int64         `json:"computations"`
	Coalesced    int64         `json:"coalesced"`
	PeerFills    int64         `json:"peer_fills"`
	PeerProxied  int64         `json:"peer_proxied"`
	// Rates are per plan lookup (cache_hits + cache_misses; a coalesced
	// request counts as a miss first), not per HTTP request — a batch
	// request performs one lookup per item, so requests would undercount
	// the denominator.
	//
	// CacheHitRate is the fraction of lookups served from cache.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CoalescedRate is the fraction of lookups that joined another
	// request's in-flight computation.
	CoalescedRate float64 `json:"coalesced_rate"`
	// HotRate is the fraction of lookups that never reached the solver
	// (cache hit or coalesced). Zipfian popularity should push it well
	// above the uniform baseline.
	HotRate float64 `json:"hot_rate"`
}

// StageStat summarizes one serving stage across the run's sampled traces:
// how many traces attributed time to the stage, the stage-duration quantiles,
// and the stage's share of the sampled requests' total wall time.
type StageStat struct {
	Samples int     `json:"samples"`
	P50MS   float64 `json:"p50_ms"`
	P99MS   float64 `json:"p99_ms"`
	Share   float64 `json:"share"`
}

// TraceAttribution is the per-stage latency-attribution summary built from
// the run's sampled distributed traces (Config.TraceEvery). Shares are
// exclusive per stage — the server's stage taxonomy partitions each traced
// request's wall time — so they sum to at most 1 (the remainder is
// unattributed handler overhead).
type TraceAttribution struct {
	// Sampled is how many requests carried a minted trace id.
	Sampled int `json:"sampled"`
	// Fetched is how many of those traces were still resident on a target
	// after the run.
	Fetched int `json:"fetched"`
	// FetchErrors counts sampled ids no target still held (overwritten in
	// the bounded trace store, or the request never completed).
	FetchErrors int `json:"fetch_errors"`
	// Stages maps stage name (decode, cache, slot, flight, compute, proxy,
	// write) to its attribution.
	Stages map[string]StageStat `json:"stages"`
}

// Report is the run's machine-readable result (the BENCH_load.json body).
type Report struct {
	Schema          string                     `json:"schema"`
	Mode            string                     `json:"mode"`
	Dist            string                     `json:"dist"`
	ZipfS           float64                    `json:"zipf_s,omitempty"`
	Seed            int64                      `json:"seed"`
	Theta           float64                    `json:"theta"`
	Budget          int                        `json:"budget"`
	Ramp            string                     `json:"ramp"`
	Targets         []string                   `json:"targets"`
	CatalogSize     int                        `json:"catalog_size"`
	DurationSeconds float64                    `json:"duration_seconds"`
	Workloads       map[string]*WorkloadReport `json:"workloads"`
	OfferedQPS      float64                    `json:"offered_qps"`
	AchievedQPS     float64                    `json:"achieved_qps"`
	LatencyMS       Percentiles                `json:"latency_ms"`
	Server          ServerSummary              `json:"server"`
	// TraceAttribution is present when the run sampled traces
	// (Config.TraceEvery > 0 and at least one request fired).
	TraceAttribution *TraceAttribution `json:"trace_attribution,omitempty"`
}

// scrape snapshots every target's /debug/metrics.
func (r *Runner) scrape(ctx context.Context) ([]*api.DebugMetrics, error) {
	out := make([]*api.DebugMetrics, len(r.env.Clients))
	for i, c := range r.env.Clients {
		m, err := c.DebugMetrics(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// buildReport assembles the final document from the harness counters,
// histograms, and the targets' before/after metric snapshots.
func (r *Runner) buildReport(before, after []*api.DebugMetrics, elapsed time.Duration) *Report {
	rep := &Report{
		Schema:          ReportSchema,
		Mode:            r.cfg.Mode,
		Dist:            r.cfg.Dist.Kind,
		ZipfS:           r.cfg.Dist.S,
		Seed:            r.cfg.Seed,
		Theta:           r.cfg.Theta,
		Budget:          r.cfg.Budget,
		Ramp:            r.cfg.Ramp.String(),
		Targets:         append([]string(nil), r.cfg.Targets...),
		CatalogSize:     len(r.cfg.Catalog),
		DurationSeconds: elapsed.Seconds(),
		Workloads:       make(map[string]*WorkloadReport, len(r.scenarios)),
	}
	secs := elapsed.Seconds()
	for _, sc := range r.scenarios {
		done := sc.done.Load()
		offered := done
		if r.cfg.Mode == ModeOpen {
			offered = sc.offered.Load()
		}
		h := sc.latency
		wr := &WorkloadReport{
			Requests: done,
			Errors:   sc.errs.Load(),
			Dropped:  sc.dropped.Load(),
			ByClass:  make(map[string]int64, nClasses),
			LatencyMS: Percentiles{
				P50:  h.Quantile(0.50) * 1e3,
				P90:  h.Quantile(0.90) * 1e3,
				P99:  h.Quantile(0.99) * 1e3,
				P999: h.Quantile(0.999) * 1e3,
			},
			OfferedQPS:  float64(offered) / maxf(secs, 1e-9),
			AchievedQPS: float64(done) / maxf(secs, 1e-9),
		}
		for ci, label := range classLabels {
			wr.ByClass[label] = sc.byClass[ci].Load()
		}
		rep.Workloads[sc.name] = wr
		rep.OfferedQPS += wr.OfferedQPS
		rep.AchievedQPS += wr.AchievedQPS
	}
	rep.LatencyMS = r.pooledPercentiles()

	rep.Server.Targets = make([]TargetDelta, 0, len(before))
	for i := range before {
		if i >= len(after) {
			break
		}
		b, a := before[i], after[i]
		d := TargetDelta{
			Target:       r.cfg.Targets[i],
			Requests:     a.Requests - b.Requests,
			Failures:     a.Failures - b.Failures,
			CacheHits:    a.CacheHits - b.CacheHits,
			CacheMisses:  a.CacheMisses - b.CacheMisses,
			Computations: a.Computations - b.Computations,
			Coalesced:    a.Coalesced - b.Coalesced,
			BatchItems:   a.BatchItems - b.BatchItems,
			PeerFills:    a.PeerFills - b.PeerFills,
			PeerProxied:  a.PeerProxied - b.PeerProxied,
			Rejected:     a.Rejected - b.Rejected,
		}
		rep.Server.Targets = append(rep.Server.Targets, d)
		rep.Server.Requests += d.Requests
		rep.Server.Failures += d.Failures
		rep.Server.CacheHits += d.CacheHits
		rep.Server.CacheMisses += d.CacheMisses
		rep.Server.Computations += d.Computations
		rep.Server.Coalesced += d.Coalesced
		rep.Server.PeerFills += d.PeerFills
		rep.Server.PeerProxied += d.PeerProxied
	}
	lookups := rep.Server.CacheHits + rep.Server.CacheMisses
	rep.Server.CacheHitRate = ratio(rep.Server.CacheHits, lookups)
	rep.Server.CoalescedRate = ratio(rep.Server.Coalesced, lookups)
	rep.Server.HotRate = ratio(rep.Server.CacheHits+rep.Server.Coalesced, lookups)
	return rep
}

// pooledPercentiles returns the run-wide latency quantiles from the
// all-scenario histogram, fed alongside the per-scenario ones at observe
// time.
func (r *Runner) pooledPercentiles() Percentiles {
	h := r.latency
	return Percentiles{
		P50:  h.Quantile(0.50) * 1e3,
		P90:  h.Quantile(0.90) * 1e3,
		P99:  h.Quantile(0.99) * 1e3,
		P999: h.Quantile(0.999) * 1e3,
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
