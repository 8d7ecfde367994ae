package load

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
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

// WorkloadReport summarizes one scenario's run. Requests counts ops: a
// refill (a planfetch GET that found its plan evicted, then the POST that
// recomputed it) is one op, counted once under its POST's status class and
// once in Refills.
type WorkloadReport struct {
	Requests    int64            `json:"requests"`
	Errors      int64            `json:"errors"`
	Dropped     int64            `json:"dropped"`
	Refills     int64            `json:"refills"`
	ByClass     map[string]int64 `json:"by_class"`
	LatencyMS   Percentiles      `json:"latency_ms"`
	OfferedQPS  float64          `json:"offered_qps"`
	AchievedQPS float64          `json:"achieved_qps"`
}

// TargetDelta is one replica's counter movement across the run, read from
// its sieved_*_total series in /metrics.
type TargetDelta struct {
	Target       string `json:"target"`
	Requests     int64  `json:"requests"`
	Failures     int64  `json:"failures"`
	NotFound     int64  `json:"not_found"`
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
	NotFound     int64         `json:"not_found"`
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
	// Stages maps each serving stage that ran during the pass (decode,
	// cache, slot, flight, compute, proxy, write) to its time, summed over
	// the targets' sieved_stage_seconds deltas.
	Stages map[string]StageStat `json:"stages"`
	// UnattributedShare is the part of the targets' request time no stage
	// claims (1 − Σ share): routing, key hashing, tracing.
	UnattributedShare float64 `json:"unattributed_share"`
}

// StageStat is one serving stage's movement across the run. Every request
// times its stages exclusively, so a target's stage sums partition its
// request time and the shares add up to at most 1.
type StageStat struct {
	// Requests is how many requests entered the stage.
	Requests int64 `json:"requests"`
	// MeanMS is the stage's mean time per request that entered it.
	MeanMS float64 `json:"mean_ms"`
	// Share is the stage's fraction of the targets' total request time.
	Share float64 `json:"share"`
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
}

// Series names read from a target's /metrics exposition.
const (
	requestSecondsSum = "sieved_request_seconds_sum"
	stageCountPrefix  = `sieved_stage_seconds_count{stage="`
	stageSumPrefix    = `sieved_stage_seconds_sum{stage="`
)

// scrape snapshots every target's /metrics exposition.
func (r *Runner) scrape(ctx context.Context) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(r.env.Clients))
	for i, c := range r.env.Clients {
		m, err := c.Metrics(ctx)
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
func (r *Runner) buildReport(before, after []map[string]float64, elapsed time.Duration) *Report {
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
			Refills:  sc.refills.Load(),
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
	rep.Server.Stages = make(map[string]StageStat)
	var requestSecs float64
	stageSecs := make(map[string]float64)
	for i := range before {
		// A series absent from before was not yet written (sieved exposes a
		// stage only after its first observation), so it reads as 0.
		b, a := before[i], after[i]
		delta := func(key string) float64 { return a[key] - b[key] }
		counter := func(name string) int64 { return int64(delta("sieved_" + name + "_total")) }
		d := TargetDelta{
			Target:       r.cfg.Targets[i],
			Requests:     counter("requests"),
			Failures:     counter("failures"),
			NotFound:     counter("not_found"),
			CacheHits:    counter("cache_hits"),
			CacheMisses:  counter("cache_misses"),
			Computations: counter("computations"),
			Coalesced:    counter("coalesced"),
			BatchItems:   counter("batch_items"),
			PeerFills:    counter("peer_fills"),
			PeerProxied:  counter("peer_proxied"),
			Rejected:     counter("rejected"),
		}
		rep.Server.Targets = append(rep.Server.Targets, d)
		rep.Server.Requests += d.Requests
		rep.Server.Failures += d.Failures
		rep.Server.NotFound += d.NotFound
		rep.Server.CacheHits += d.CacheHits
		rep.Server.CacheMisses += d.CacheMisses
		rep.Server.Computations += d.Computations
		rep.Server.Coalesced += d.Coalesced
		rep.Server.PeerFills += d.PeerFills
		rep.Server.PeerProxied += d.PeerProxied

		requestSecs += delta(requestSecondsSum)
		for key := range a {
			stage, ok := strings.CutPrefix(key, stageCountPrefix)
			if !ok {
				continue
			}
			stage = strings.TrimSuffix(stage, `"}`)
			n := int64(delta(key))
			if n == 0 {
				continue
			}
			st := rep.Server.Stages[stage]
			st.Requests += n
			rep.Server.Stages[stage] = st
			stageSecs[stage] += delta(stageSumPrefix + stage + `"}`)
		}
	}
	attributed := 0.0
	for stage, st := range rep.Server.Stages {
		st.MeanMS = stageSecs[stage] / float64(st.Requests) * 1e3
		if requestSecs > 0 {
			st.Share = stageSecs[stage] / requestSecs
		}
		attributed += st.Share
		rep.Server.Stages[stage] = st
	}
	if requestSecs > 0 {
		rep.Server.UnattributedShare = 1 - attributed
	}
	lookups := rep.Server.CacheHits + rep.Server.CacheMisses
	rep.Server.CacheHitRate = ratio(rep.Server.CacheHits, lookups)
	rep.Server.CoalescedRate = ratio(rep.Server.Coalesced, lookups)
	rep.Server.HotRate = ratio(rep.Server.CacheHits+rep.Server.Coalesced, lookups)
	return rep
}

// StageTable renders the server's stage shares as an aligned text table,
// stages sorted by share (largest first), for the harness's stderr output.
// It is empty when no stage ran.
func (s ServerSummary) StageTable() string {
	if len(s.Stages) == 0 {
		return ""
	}
	names := make([]string, 0, len(s.Stages))
	for name := range s.Stages {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := s.Stages[names[i]], s.Stages[names[j]]
		if a.Share != b.Share {
			return a.Share > b.Share
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "server stage shares (/metrics deltas, %d requests, %.1f%% unattributed)\n",
		s.Requests, s.UnattributedShare*100)
	fmt.Fprintf(&b, "  %-8s %9s %10s %7s\n", "stage", "requests", "mean_ms", "share")
	for _, name := range names {
		st := s.Stages[name]
		fmt.Fprintf(&b, "  %-8s %9d %10.3f %6.1f%%\n", name, st.Requests, st.MeanMS, st.Share*100)
	}
	return b.String()
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
