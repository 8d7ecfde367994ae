// Command sievebench is the repository benchmark. It builds cmd/sieved,
// starts fresh replicas for each workload, drives them with a seeded
// Poisson open loop through the public client package, verifies every plan
// it gets back, and reports end-to-end metrics from that untraced load plus
// per-layer metrics from the replicas' /metrics counters and from a separate
// traced run that times each layer's public entry point in-process.
//
// Run it from the repository root through bench/run.sh, which keeps the Go
// caches inside the checkout:
//
//	sh bench/run.sh -seed 1                                      # every workload
//	sh bench/run.sh --workload csv-hit --seed 3 --seconds 25 --trace 0
//	sh bench/run.sh compare parent1.json parent2.json -- change1.json change2.json
//
// Every metric is printed as "workload metric value unit". The last line of
// standard output is one JSON object: correct, attempted, failed and the
// requested metrics (end-to-end with --trace 0, per-layer with --trace 1).
// The exit status is non-zero when any check failed or a run was overloaded.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// setups is how many times each workload's replicas are started; setup_s
// is the median and the last start serves the load.
const setups = 11

// warmup is the unmeasured load before each window: enough for csv-hit to
// fill its cache and for every replica's heap and connections to settle.
const warmup = 3 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Stdout, os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("sievebench", flag.ContinueOnError)
	var (
		only    = fs.String("workload", "", "run one workload ("+strings.Join(names, ", ")+"); default all")
		seed    = fs.Int64("seed", 1, "seed of the arrivals, picks, salts and method order")
		seconds = fs.Int("seconds", 25, "measured window per workload, in seconds")
		trace   = fs.Int("trace", 1, "1: add the traced run and report per-layer metrics; 0: end-to-end only")
		out     = fs.String("out", "", "result path prefix: writes <out>.json and, when traced, <out>.trace.json (default .bench_build/results/<workload>-seed<seed>)")
		root    = fs.String("root", "", "repository root (default: . or .., whichever holds cmd/sieved)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *only != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *only {
				selected = []*workload{w}
			}
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "sievebench: want -workload in {"+strings.Join(names, ", ")+"}, -seconds ≥ 1, -trace 0 or 1")
		return 2
	}
	// The bench's own garbage collection competes with the replicas for the
	// machine's two cores and delays sends; collecting only as the heap nears
	// 256 MiB keeps it out of almost every measured request.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(256 << 20)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, warmup: warmup}
	res, err := runAll(ctx, *root, *out, *only, selected, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sievebench:", err)
		return 1
	}
	line, err := summaryLine(res.Workloads, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sievebench:", err)
		return 1
	}
	fmt.Println(string(line))
	for _, w := range res.Workloads {
		if !w.correct() {
			return 1
		}
	}
	return 0
}

// findRoot returns the repository root: dir when given, else whichever of
// "." and ".." holds cmd/sieved.
func findRoot(dir string) (string, error) {
	candidates := []string{dir}
	if dir == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "cmd", "sieved", "main.go")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("no cmd/sieved under %q: run from the repository root or pass -root", candidates)
}

// runAll builds sieved, measures each selected workload, adds the traced
// run when asked, and writes the result (and trace) files.
func runAll(ctx context.Context, rootFlag, outFlag, only string, selected []*workload, cfg runConfig, trace bool) (*result, error) {
	root, err := findRoot(rootFlag)
	if err != nil {
		return nil, err
	}
	binDir := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.bin, err = buildSieved(ctx, root, binDir); err != nil {
		return nil, err
	}
	prefix := outFlag
	if prefix == "" {
		name := only
		if name == "" {
			name = "all"
		}
		prefix = filepath.Join(root, ".bench_build", "results", fmt.Sprintf("%s-seed%d", name, cfg.seed))
	}
	if err := os.MkdirAll(filepath.Dir(prefix), 0o755); err != nil {
		return nil, err
	}

	res := &result{Header: newHeader(root, cfg.seed, cfg.window, cfg.warmup, trace)}
	meanLatency := map[*workloadResult]float64{}
	for _, w := range selected {
		entries, err := buildEntries(ctx, w.specs)
		if err != nil {
			return nil, err
		}
		wr, lat, err := runWorkload(ctx, w, entries, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Workloads = append(res.Workloads, wr)
		meanLatency[wr] = lat
	}

	if trace {
		var catalogs [3][]*entry
		for i, specs := range [][]spec{csvSpecs, methodSpecs, mixSpecs} {
			if catalogs[i], err = buildEntries(ctx, specs); err != nil {
				return nil, err
			}
		}
		t := newTracer()
		layers, err := tracedRun(ctx, t, catalogs[0], catalogs[1], catalogs[2])
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		for _, wr := range res.Workloads {
			for name, v := range layers {
				wr.Metrics[name] = metric{v, unitOf(name)}
			}
		}
		f, err := os.Create(prefix + ".trace.json")
		if err != nil {
			return nil, err
		}
		err = t.writeChrome(f, res.Header)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}

	for _, wr := range res.Workloads {
		printMetrics(os.Stdout, wr)
		printReconciliation(os.Stdout, wr, meanLatency[wr])
		for _, e := range wr.Errors {
			fmt.Fprintf(os.Stdout, "%s error %s\n", wr.Name, e)
		}
	}
	if err := writeResult(prefix+".json", res); err != nil {
		return nil, err
	}
	return res, nil
}

// unitOf returns the unit a metric is defined with.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, diagnostics, perLayer} {
		for _, d := range set {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// runConfig holds the settings every workload of a run shares.
type runConfig struct {
	bin    string
	seed   int64
	window time.Duration
	warmup time.Duration
}

// runWorkload starts the workload's replicas setups times, drives the last
// start through an unmeasured warmup and the measured window, runs the
// deferred plan checks, and returns the window's metrics and its mean
// latency in milliseconds.
func runWorkload(ctx context.Context, w *workload, entries []*entry, cfg runConfig) (*workloadResult, float64, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	// The salt leaves headroom for the per-request sequence numbers added
	// to it.
	salt := rng.Uint64() >> 1
	nWarm := int(w.rate * cfg.warmup.Seconds())
	nWin := int(w.rate * cfg.window.Seconds())
	warmAt := poissonSchedule(rng, nWarm, cfg.warmup)
	warmCalls := w.calls(rng, 0, nWarm, salt)
	winAt := poissonSchedule(rng, nWin, cfg.window)
	winCalls := w.calls(rng, nWarm, nWin, salt)

	var setupS []float64
	var cl *replicaSet
	for i := 0; i < setups; i++ {
		c, d, err := startCluster(ctx, cfg.bin, w.replicas, w.cache)
		if err != nil {
			return nil, 0, err
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			c.stop()
		} else {
			cl = c
		}
	}
	defer cl.stop()

	v := newVerifier()
	if w.cached != nil && !*w.cached {
		v.wantCached = w.cached
	}
	s := &sender{cl: cl, entries: entries, v: v, planIDs: map[int]string{}}
	warm, _, err := drive(ctx, warmAt, cfg.warmup, func(ctx context.Context, i int) (time.Time, error) {
		return s.send(ctx, &warmCalls[i])
	})
	if err != nil {
		return nil, 0, err
	}
	v.wantCached = w.cached

	before, err := cl.scrape(ctx)
	if err != nil {
		return nil, 0, err
	}
	cpu0, err := cl.cpu()
	if err != nil {
		return nil, 0, err
	}
	outs, drain, err := drive(ctx, winAt, cfg.window, func(ctx context.Context, i int) (time.Time, error) {
		return s.send(ctx, &winCalls[i])
	})
	if err != nil {
		return nil, 0, err
	}
	cpu1, err := cl.cpu()
	if err != nil {
		return nil, 0, err
	}
	after, err := cl.scrape(ctx)
	if err != nil {
		return nil, 0, err
	}
	hwmKB, err := cl.peakRSS()
	if err != nil {
		return nil, 0, err
	}

	st := summarize(outs, drain)
	wr := &workloadResult{
		Name:       w.name,
		Replicas:   w.replicas,
		RateRPS:    w.rate,
		Scheduled:  st.scheduled,
		Overloaded: drain > overloadDrain,
		Errors:     st.firstErrs,
	}
	failed := st.failed()
	for _, o := range warm {
		if o.err != nil {
			failed++
			wr.Errors = append(wr.Errors, "warmup: "+o.err.Error())
		}
	}
	for _, err := range v.finish(ctx, entries) {
		failed++
		wr.Errors = append(wr.Errors, err.Error())
	}
	wr.Failed = failed
	if wr.Overloaded {
		wr.Errors = append(wr.Errors, fmt.Sprintf("overloaded: last response %v after the window", drain.Round(time.Millisecond)))
	}

	p50, _ := quantile(st.latencies, 0.50)
	p99, supported := quantile(st.latencies, 0.99)
	if !supported {
		fmt.Fprintf(os.Stderr, "sievebench: %s: p99 of %d samples has fewer than %d beyond it\n", w.name, len(st.latencies), minBeyond)
	}
	latePct, _ := quantile(st.queues, 0.99)
	completed := st.scheduled - st.failed()
	vals := map[string]float64{
		"setup_s":             median(setupS),
		"p50_ms":              p50,
		"p99_ms":              p99,
		"err_rate":            float64(failed) / float64(st.scheduled),
		"cpu_ms_per_req":      ms(cpu1-cpu0) / float64(completed),
		"rss_mb":              float64(hwmKB) / 1024,
		"samples":             float64(len(st.latencies)),
		"loadgen.queue_ms":    mean(st.queues),
		"loadgen.late_p99_ms": latePct,
	}
	for name, v := range serverLayers(before, after) {
		vals[name] = v
	}
	vals["client.wire_ms"] = st.callMeanMS - vals["server.request_ms"]
	wr.Metrics = map[string]metric{}
	for name, v := range vals {
		// A window without a successful request has no latency to report.
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			wr.Metrics[name] = metric{v, unitOf(name)}
		}
	}
	return wr, mean(st.latencies), nil
}
