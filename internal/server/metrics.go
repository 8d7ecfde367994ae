package server

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/obs"
	"github.com/gpusampling/sieve/internal/sampler"
)

// requestSecondsMetric names the request-latency histogram in the Prometheus
// exposition.
const requestSecondsMetric = "sieved_request_seconds"

// stageSecondsMetric names the per-stage latency histogram family: one
// Prometheus histogram per serving stage, labeled {stage="..."}.
const stageSecondsMetric = "sieved_stage_seconds"

// latencyBuckets is the explicit upper-bound ladder every latency histogram
// is exposed with (Prometheus le values, seconds). The internal log-bucketed
// histograms are far finer; Cumulative downsamples them onto this ladder at
// scrape time, so changing the ladder never loses recorded data.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metrics holds the server's expvar counters. The vars are kept off the
// global expvar namespace so several servers can coexist in one process
// (every httptest server would otherwise collide on Publish); cmd/sieved
// additionally publishes them globally under the "sieved" name. Request
// latencies go to shared obs.Histograms (log-bucketed, lock-free): quantiles
// cover the server's lifetime at constant memory and the same histogram
// feeds /debug/metrics and the Prometheus exposition. Every terminal
// response path records latency — errors included — into both the overall
// histogram and a per-status-class one (sieved_request_seconds_class_4xx,
// …), so p99 under errors is visible rather than a blind spot.
type metrics struct {
	Requests     expvar.Int // API requests accepted (sample, characterize, plan get, batch)
	Failures     expvar.Int // requests answered with a 4xx/5xx
	CacheHits    expvar.Int // plans served from the content-hash cache
	CacheMisses  expvar.Int // plan lookups that missed the cache
	Computations expvar.Int // sampling runs actually executed (misses minus coalesced/proxied)
	Coalesced    expvar.Int // requests that joined another request's in-flight computation
	BatchItems   expvar.Int // items processed across all /v1/batch requests
	PeerFills    expvar.Int // plans filled into the local cache from a peer replica
	PeerProxied  expvar.Int // requests proxied to the owning peer replica
	InFlight     expvar.Int // requests currently holding a worker slot
	Rejected     expvar.Int // requests that gave up waiting for a slot
	RowsIngested expvar.Int // profile rows ingested across all requests

	// methods counts sample requests per sampling methodology, one counter
	// per sampler.Names() entry in that (sorted) order.
	methods []methodCounter

	// request is the overall request-latency histogram; byClass splits it by
	// status class, indexed like classLabels.
	request *obs.Histogram
	byClass [len(classLabels)]*obs.Histogram

	// stages holds one latency histogram per serving stage (decode, slot,
	// compute, …), indexed by stage, fed from each request's stage array by
	// finishTrace and exposed as sieved_stage_seconds{stage="..."} in
	// stagesByName order.
	stages       [numStages]*obs.Histogram
	stagesByName []stage

	// start is the epoch of sieved_uptime_seconds: server construction, not
	// first scrape.
	start time.Time
}

type methodCounter struct {
	method string
	n      *expvar.Int
}

// newMetrics builds every histogram and per-method counter up front: the
// request path only looks them up, so nothing guards the tables.
func newMetrics() *metrics {
	m := &metrics{request: obs.NewHistogram(), start: time.Now()}
	for _, name := range sampler.Names() {
		m.methods = append(m.methods, methodCounter{name, new(expvar.Int)})
	}
	for i := range m.byClass {
		m.byClass[i] = obs.NewHistogram()
	}
	for st := range m.stages {
		m.stages[st] = obs.NewHistogram()
		m.stagesByName = append(m.stagesByName, stage(st))
	}
	sort.Slice(m.stagesByName, func(i, j int) bool {
		return m.stagesByName[i].String() < m.stagesByName[j].String()
	})
	return m
}

// methodRequests returns the sample-request counter of a canonical method
// name. Requests reach it only after resolve validated the method through
// sampler.Check, so the lookup cannot miss.
func (m *metrics) methodRequests(method string) *expvar.Int {
	for _, c := range m.methods {
		if c.method == method {
			return c.n
		}
	}
	panic("server: unknown sampling method " + method)
}

// counterDef is one row of the counter table: the metric's base name, its
// Prometheus kind and its value.
type counterDef struct {
	name string
	kind string // "counter" or "gauge"
	v    *expvar.Int
}

// counterTable lists every expvar counter once, in /debug/metrics key order.
// It drives all three expositions: the /debug/metrics document, the
// Prometheus text (counters as sieved_<name>_total, gauges as sieved_<name>)
// and expvar publication (<prefix>.<name>).
func (m *metrics) counterTable() []counterDef {
	return []counterDef{
		{"requests", "counter", &m.Requests},
		{"failures", "counter", &m.Failures},
		{"cache_hits", "counter", &m.CacheHits},
		{"cache_misses", "counter", &m.CacheMisses},
		{"computations", "counter", &m.Computations},
		{"coalesced", "counter", &m.Coalesced},
		{"batch_items", "counter", &m.BatchItems},
		{"peer_fills", "counter", &m.PeerFills},
		{"peer_proxied", "counter", &m.PeerProxied},
		{"in_flight", "gauge", &m.InFlight},
		{"rejected", "counter", &m.Rejected},
		{"rows_ingested", "counter", &m.RowsIngested},
	}
}

// classLabels names the status classes of the latency breakdown.
var classLabels = [...]string{"2xx", "3xx", "4xx", "5xx"}

// statusClass buckets an HTTP status for the latency breakdown, as an index
// into classLabels. 499 (client-abandoned) counts as 4xx: the client gave up,
// the server did not fail.
func statusClass(status int) int {
	switch {
	case status >= 500:
		return 3
	case status >= 400:
		return 2
	case status >= 300:
		return 1
	default:
		return 0
	}
}

// observe records one terminal response: its wall time into the overall
// latency histogram and the per-status-class one. Handlers route every exit —
// success, caller error, timeout, disconnect — through here, so error-path
// latency shows up in the quantiles instead of only successes.
func (m *metrics) observe(status int, d time.Duration) {
	m.request.ObserveDuration(d)
	m.byClass[statusClass(status)].ObserveDuration(d)
}

// observeStages records a finished request's attributed time for every
// stage it entered.
func (m *metrics) observeStages(tr *requestTrace) {
	for st, h := range m.stages {
		if tr.stageSet&(1<<st) != 0 {
			h.Observe(float64(tr.stageNS[st]) / 1e9)
		}
	}
}

// quantiles returns the p50 and p99 of the recorded latencies, in
// milliseconds (0, 0 before the first request).
func (m *metrics) quantiles() (p50, p99 float64) {
	return m.request.Quantile(0.50) * 1e3, m.request.Quantile(0.99) * 1e3
}

// handler serves the /debug/metrics snapshot, assembled directly from the
// counter table. The JSON shape (keys, their order and nesting) is a
// compatibility contract pinned by TestDebugMetricsJSONShape — monitoring
// dashboards parse it. cache_entries is not a counter; it follows
// cache_misses. The counters satisfy cache_hits + cache_misses + failures ==
// requests for the non-batch endpoints (batch adds batch_items on top of its
// one request).
func (m *metrics) handler(cacheLen func() int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		b.WriteByte('{')
		for _, c := range m.counterTable() {
			fmt.Fprintf(&b, "%q:%d,", c.name, c.v.Value())
			if c.name == "cache_misses" {
				fmt.Fprintf(&b, `"cache_entries":%d,`, cacheLen())
			}
		}
		b.WriteString(`"method_requests":{`)
		sep := ""
		for _, c := range m.methods {
			if n := c.n.Value(); n > 0 {
				fmt.Fprintf(&b, "%s%q:%d", sep, c.method, n)
				sep = ","
			}
		}
		p50, p99 := m.quantiles()
		fmt.Fprintf(&b, `},"latency_ms":{"p50":%g,"p99":%g}}`+"\n", p50, p99)
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, b.String())
	}
}

// fmtLE renders an upper bound the way Prometheus spells le values.
func fmtLE(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeHistogram renders one histogram at the explicit latencyBuckets ladder
// in Prometheus histogram form: cumulative _bucket samples per le (plus
// +Inf), then _sum and _count. labels ("" or `stage="x",`) is spliced before
// the le label, so a labeled family shares one # TYPE header written by the
// caller.
func writeHistogram(w io.Writer, name, labels string, h *obs.Histogram) {
	cum, total := h.Cumulative(latencyBuckets)
	for i, b := range latencyBuckets {
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, fmtLE(b), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, total)
	if labels != "" {
		labels = "{" + strings.TrimRight(labels, ",") + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", name, labels, h.Sum(), name, labels, h.Count())
}

// prometheus serves the counters and the latency histograms in Prometheus
// text exposition format (0.0.4): the counter table's rows and the runtime
// gauges are written directly from their values; the latency histograms
// (overall, per status class, per serving stage) render with explicit
// buckets — real _bucket/_sum/_count series, not summary quantiles — so
// scrapes aggregate across replicas.
func (m *metrics) prometheus(cacheLen func() int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Read before the counters, though written after them: a request
		// bumps requests when it starts and feeds the histograms when it
		// ends, so no histogram count exceeds requests in one scrape.
		hists := m.histogramText()
		sample := func(name, kind string, v int64) {
			fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, kind, name, v)
		}
		for _, c := range m.counterTable() {
			name := "sieved_" + c.name
			if c.kind == "counter" {
				name += "_total"
			}
			sample(name, c.kind, c.v.Value())
		}
		header := "# TYPE sieved_method_requests_total counter\n"
		for _, c := range m.methods {
			if n := c.n.Value(); n > 0 {
				fmt.Fprintf(w, "%ssieved_method_requests_total{method=%q} %d\n", header, c.method, n)
				header = ""
			}
		}
		sample("sieved_cache_entries", "gauge", int64(cacheLen()))
		sample("sieved_goroutines", "gauge", int64(runtime.NumGoroutine()))
		fmt.Fprintf(w, "# TYPE sieved_uptime_seconds gauge\nsieved_uptime_seconds %g\n",
			time.Since(m.start).Seconds())
		// Build/protocol identity: the same version /healthz reports, as a
		// constant gauge with the value in a label (the node_exporter idiom).
		fmt.Fprintf(w, "# TYPE sieved_build_info gauge\nsieved_build_info{version=%q} 1\n", api.Version)
		_, _ = io.WriteString(w, hists)
	}
}

// histogramText renders the request-latency histograms: the overall one
// always, each status class and serving stage once it holds an observation.
// The stage histograms are read first because a finishing request feeds
// them after the overall one, so no stage count exceeds the overall count.
func (m *metrics) histogramText() string {
	var stages strings.Builder
	header := "# TYPE " + stageSecondsMetric + " histogram\n"
	for _, st := range m.stagesByName {
		if h := m.stages[st]; h.Count() > 0 {
			stages.WriteString(header)
			header = ""
			writeHistogram(&stages, stageSecondsMetric, fmt.Sprintf("stage=%q,", st.String()), h)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE %s histogram\n", requestSecondsMetric)
	writeHistogram(&b, requestSecondsMetric, "", m.request)
	for i, h := range m.byClass {
		if h.Count() > 0 {
			name := requestSecondsMetric + "_class_" + classLabels[i]
			fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
			writeHistogram(&b, name, "", h)
		}
	}
	b.WriteString(stages.String())
	return b.String()
}

// Publish registers the counters on the global expvar namespace under
// name.* so the standard /debug/vars endpoint exposes them too. Call at most
// once per process (expvar panics on duplicate names).
func (m *metrics) Publish(name string) {
	for _, c := range m.counterTable() {
		expvar.Publish(name+"."+c.name, c.v)
	}
}
