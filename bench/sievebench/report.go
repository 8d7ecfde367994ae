package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// metricDef names a metric, its unit and, for an end-to-end metric, its
// regression bound: how far the change's median may exceed the parent's, as
// a share of the parent's, before the change counts as a regression. Every
// metric is lower-is-better except the ratios of useful outcomes.
type metricDef struct {
	name  string
	unit  string
	bound float64
}

// endToEnd are the end-to-end metrics BENCHMARK.json lists, reported to a
// --trace 0 run. The time bounds are wide because the benchmark machine is a
// shared two-vCPU VM whose speed shifts by 30–45% for minutes at a time; ten
// runs of one workload spread by 5–31% (interquartile range over median),
// the most when they straddle such a shift. setup_s, a few milliseconds of
// process start that is bimodal on this host, carries the widest bound.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"p50_ms", "ms", 0.24},
	{"cpu_ms_per_req", "ms", 0.24},
	{"rss_mb", "MiB", 0.10},
}

// p99Latency is end-to-end too, but BENCHMARK.json leaves it out: on this
// host the tail follows the host's slow phases more than the program (ten
// runs of one code spread by 12–100%, past any bound a gate can hold), so it
// is printed and compare judges it, where a spread wider than its bound
// reads as unresolved.
var p99Latency = metricDef{"p99_ms", "ms", 0.24}

// errRate is end-to-end too, but BENCHMARK.json leaves it out: it reads 0
// on every passing run, and any failure already fails the run. compare
// holds it to "any increase is a regression".
var errRate = metricDef{"err_rate", "ratio", 0}

// perLayer are the per-layer metrics BENCHMARK.json lists, reported to a
// --trace 1 run. Each is measured on every workload; stage times that are
// zero on some workload by construction are printed as diagnostics instead.
var perLayer = []metricDef{
	{"server.request_ms", "ms", 0},
	{"server.decode_ms", "ms", 0},
	{"server.cache_ms", "ms", 0},
	{"server.write_ms", "ms", 0},
	{"server.unattributed_ms", "ms", 0},
	{"server.hit_rate", "ratio", 0},
	{"server.computations_per_lookup", "ratio", 0},
	{"server.proxied_per_req", "ratio", 0},
	{"server.fills_per_req", "ratio", 0},
	{"server.coalesced_per_req", "ratio", 0},
	{"server.handler_hit_us", "us", 0},
	{"server.handler_hit_allocs", "count", 0},
	{"server.handler_miss_us", "us", 0},
	{"profiler.parse_ms", "ms", 0},
	{"core.stratify_ms", "ms", 0},
	{"core.stratify_allocs", "count", 0},
	{"kde.split_ms", "ms", 0},
	{"sampler.run_ms.sieve", "ms", 0},
	{"sampler.run_ms.twophase", "ms", 0},
	{"sampler.run_ms.rss", "ms", 0},
	{"sampler.run_ms.pks", "ms", 0},
	{"pks.select_ms", "ms", 0},
	{"cluster.kmeans_ms", "ms", 0},
	{"workloads.generate_ms", "ms", 0},
	{"client.wire_ms", "ms", 0},
	{"loadgen.queue_ms", "ms", 0},
	{"loadgen.late_p99_ms", "ms", 0},
}

// diagnostics are printed and recorded but left out of the summary line.
var diagnostics = []metricDef{
	p99Latency,
	errRate,
	{"samples", "count", 0},
	{"server.compute_ms", "ms", 0},
	{"server.slot_ms", "ms", 0},
	{"server.flight_ms", "ms", 0},
	{"server.proxy_ms", "ms", 0},
	{"server.failures_per_req", "ratio", 0},
	{"server.rejected", "count", 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// header identifies the code and machine behind a result.
type header struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Date       string `json:"date"`
	Seed       int64  `json:"seed"`
	WindowS    int    `json:"window_s"`
	WarmupS    int    `json:"warmup_s"`
	Trace      bool   `json:"trace"`
}

func newHeader(root string, seed int64, window, warmup time.Duration, trace bool) header {
	sha := "unknown"
	if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(b))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			sha += "-dirty"
		}
	}
	return header{
		GitSHA:     sha,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Seed:       seed,
		WindowS:    int(window / time.Second),
		WarmupS:    int(warmup / time.Second),
		Trace:      trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// workloadResult is one workload's measured window.
type workloadResult struct {
	Name       string            `json:"name"`
	Replicas   int               `json:"replicas"`
	RateRPS    float64           `json:"rate_rps"`
	Scheduled  int               `json:"scheduled"`
	Failed     int               `json:"failed"`
	Overloaded bool              `json:"overloaded"`
	Errors     []string          `json:"errors,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

func (w *workloadResult) correct() bool { return w.Failed == 0 && !w.Overloaded }

// result is the JSON document one run writes.
type result struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

// printMetrics writes every metric of w as "workload metric value unit", in
// the order end-to-end, diagnostics, per-layer.
func printMetrics(out io.Writer, w *workloadResult) {
	for _, set := range [][]metricDef{endToEnd, diagnostics, perLayer} {
		for _, d := range set {
			if m, ok := w.Metrics[d.name]; ok {
				fmt.Fprintf(out, "%s %s %.6g %s\n", w.Name, d.name, m.Value, m.Unit)
			}
		}
	}
}

// printReconciliation checks that the per-layer numbers add up: the stages
// and the unattributed rest make up the server's request time, and queueing,
// the wire and the server make up the mean latency (the residual is the
// bench's own response verification).
func printReconciliation(out io.Writer, w *workloadResult, meanLatencyMS float64) {
	v := func(name string) float64 { return w.Metrics[name].Value }
	var stages float64
	for _, st := range serverStages {
		stages += v("server." + st + "_ms")
	}
	fmt.Fprintf(out, "%s reconcile server.request_ms %.4f = stages %.4f + unattributed %.4f\n",
		w.Name, v("server.request_ms"), stages, v("server.unattributed_ms"))
	parts := v("loadgen.queue_ms") + v("client.wire_ms") + v("server.request_ms")
	fmt.Fprintf(out, "%s reconcile latency_mean_ms %.4f ≈ queue %.4f + wire %.4f + server %.4f (residual %.4f)\n",
		w.Name, meanLatencyMS, v("loadgen.queue_ms"), v("client.wire_ms"), v("server.request_ms"), meanLatencyMS-parts)
}

// summaryLine is the last line of standard output: whether the run was
// correct, how many requests it scheduled and failed, and the metrics the
// run was asked for (end-to-end, or per-layer when traced). With more than
// one workload, names are prefixed "workload/".
func summaryLine(ws []*workloadResult, trace bool) ([]byte, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		line.Correct = line.Correct && w.correct()
		line.Attempted += w.Scheduled
		line.Failed += w.Failed
		prefix := ""
		if len(ws) > 1 {
			prefix = w.Name + "/"
		}
		for _, d := range defs {
			m, ok := w.Metrics[d.name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return nil, fmt.Errorf("%s: metric %s was not measured", w.Name, d.name)
			}
			line.Metrics[prefix+d.name] = m
		}
	}
	return json.Marshal(line)
}

// writeResult writes r as indented JSON to path.
func writeResult(path string, r *result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readResult loads a result document.
func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &result{}
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
