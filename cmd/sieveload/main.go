// Command sieveload is the capacity-aware load harness for a running sieved
// — single node or a -peers cluster. It drives the service through
// four workload scenarios (JSON sample, raw-CSV sample, batch,
// plan re-reads) in a closed loop (ramped worker pools) or an open loop
// (paced QPS), with zipfian or uniform popularity over a catalog of Table I
// profiles, and writes a BENCH_load.json report: per-workload latency
// percentiles, offered vs achieved QPS, and the targets' own /metrics
// movement across the run (cache-hit, coalescing and peer-traffic rates, and
// each serving stage's share of request time).
//
// Usage:
//
//	sieved -addr :8372 &
//	sieveload -targets http://localhost:8372 -duration 30s -ramp 0:4,10s:32
//
// Passing several distributions runs one pass per distribution with a
// distinct cache salt (so each pass starts cold) and reports them together:
//
//	sieveload -dist zipfian,uniform -duration 30s -out BENCH_load.json
//
// See docs/load.md for the full scenario and report reference.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/gpusampling/sieve/client"
	"github.com/gpusampling/sieve/internal/cliflags"
	"github.com/gpusampling/sieve/internal/load"
)

// BenchSchema versions the multi-run wrapper document.
const BenchSchema = "sieve-load-bench/v1"

// benchDoc is the written report: always a runs array, one entry per
// distribution pass, so consumers parse one shape whether the harness ran
// one pass or several.
type benchDoc struct {
	Schema string         `json:"schema"`
	Runs   []*load.Report `json:"runs"`
}

func main() {
	var (
		workloadsF = flag.String("workloads", "sample,sample-csv,batch,planfetch",
			"comma-separated scenario names to run concurrently (see docs/load.md)")
		mode = flag.String("mode", load.ModeClosed,
			"loop mode: closed (ramp = worker count, back-to-back requests) or open (ramp = offered QPS, shed when saturated)")
		duration = flag.Duration("duration", 30*time.Second, "run length per distribution pass")
		rampF    = flag.String("ramp", "0:16",
			"load schedule as offset:target pairs, e.g. 0:100,30s:1000,2m:5000 (workers in closed mode, QPS in open mode)")
		budget = flag.Int("budget", 64,
			"shared global concurrency budget split across scenarios by max-min allocation (0 = unbounded)")
		distF = flag.String("dist", "zipfian",
			"popularity distribution over the catalog: zipfian or uniform; a comma list runs one pass per distribution")
		zipfS = flag.Float64("zipf-s", 1.2, "zipfian skew exponent (> 1; larger = hotter hot set)")
		seed  = flag.Int64("seed", 1,
			"run seed: derives every worker's RNG and the per-pass cache salt (same seed = same request streams)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		profilesF = flag.String("profiles", strings.Join(load.DefaultProfileNames, ","),
			"comma-separated Table I workload names forming the profile catalog")
		scalesF = flag.String("scales", "0.25,0.5,1",
			"comma-separated scale factors crossed with -profiles (catalog size = names × scales)")
		methodsF = flag.String("methods", "",
			"comma-separated sampling-methodology pool drawn per workload-mode request (e.g. sieve,twophase,rss; empty = server default; non-default methods cache under distinct plan ids)")
		snapshot = flag.Duration("snapshot", 5*time.Second, "period between progress lines on stderr (0 = silent)")
		out      = flag.String("out", "BENCH_load.json", "report destination ('-' = stdout, '' = none)")
		theta    = cliflags.Theta(flag.CommandLine)
		logLevel = cliflags.LogLevel(flag.CommandLine)
	)
	targets := cliflags.Targets(flag.CommandLine, "http://localhost:8372")
	flag.Parse()
	logger := cliflags.MustLogger("sieveload", *logLevel)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ramp, err := load.ParseRamp(*rampF)
	if err != nil {
		fatal(err)
	}
	var dists []load.Dist
	for _, kind := range cliflags.SplitList(*distF) {
		d, err := load.ParseDist(kind, *zipfS)
		if err != nil {
			fatal(err)
		}
		dists = append(dists, d)
	}
	if len(dists) == 0 {
		fatal(fmt.Errorf("sieveload: no distribution selected"))
	}
	scales, err := parseScales(*scalesF)
	if err != nil {
		fatal(err)
	}
	workloadNames := cliflags.SplitList(*workloadsF)
	needCSV := false
	for _, w := range workloadNames {
		if w == "sample-csv" {
			needCSV = true
		}
	}
	catalog, err := load.BuildCatalog(cliflags.SplitList(*profilesF), scales, needCSV)
	if err != nil {
		fatal(err)
	}
	targetList := cliflags.SplitList(*targets)
	if err := probeTargets(ctx, targetList, logger.Info); err != nil {
		fatal(err)
	}

	doc := benchDoc{Schema: BenchSchema}
	for i, dist := range dists {
		cfg := load.Config{
			Targets:   targetList,
			Workloads: workloadNames,
			Mode:      *mode,
			Duration:  *duration,
			Ramp:      ramp,
			Budget:    *budget,
			Dist:      dist,
			// Each pass salts the cache differently so it starts cold even
			// against a long-lived server — the zipfian-vs-uniform contrast
			// would otherwise measure the previous pass's warm cache.
			Seed:     *seed + int64(i)*1_000_000_007,
			Theta:    *theta,
			Methods:  cliflags.SplitList(*methodsF),
			Timeout:  *timeout,
			Catalog:  catalog,
			Snapshot: *snapshot,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}
		runner, err := load.NewRunner(cfg)
		if err != nil {
			fatal(err)
		}
		logger.Info("pass starting", "dist", dist.Kind, "mode", *mode,
			"duration", *duration, "ramp", ramp.String(), "budget", *budget,
			"catalog", len(catalog), "targets", targetList)
		rep, err := runner.Run(ctx)
		if err != nil {
			fatal(err)
		}
		doc.Runs = append(doc.Runs, rep)
		logger.Info("pass done", "dist", dist.Kind,
			"achieved_qps", fmt.Sprintf("%.1f", rep.AchievedQPS),
			"offered_qps", fmt.Sprintf("%.1f", rep.OfferedQPS),
			"p50_ms", fmt.Sprintf("%.2f", rep.LatencyMS.P50),
			"p99_ms", fmt.Sprintf("%.2f", rep.LatencyMS.P99),
			"cache_hit_rate", fmt.Sprintf("%.3f", rep.Server.CacheHitRate),
			"coalesced_rate", fmt.Sprintf("%.3f", rep.Server.CoalescedRate),
			"hot_rate", fmt.Sprintf("%.3f", rep.Server.HotRate))
		if table := rep.Server.StageTable(); table != "" {
			fmt.Fprint(os.Stderr, table)
		}
		if ctx.Err() != nil {
			break // interrupted: report what completed
		}
	}
	if err := writeDoc(*out, doc); err != nil {
		fatal(err)
	}
}

// probeTargets health-checks every target before the run so a typo'd URL
// fails in one second, not after a full pass of transport errors.
func probeTargets(ctx context.Context, targets []string, infof func(string, ...any)) error {
	if len(targets) == 0 {
		return fmt.Errorf("sieveload: no targets")
	}
	for _, t := range targets {
		c, err := client.New(t, client.WithTimeout(5*time.Second))
		if err != nil {
			return err
		}
		h, err := c.Healthz(ctx)
		if err != nil {
			return fmt.Errorf("sieveload: target %s unreachable: %w", t, err)
		}
		infof("target healthy", "target", t, "version", h.Version, "peers", len(h.Peers))
	}
	return nil
}

func parseScales(csv string) ([]float64, error) {
	var out []float64
	for _, s := range cliflags.SplitList(csv) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("sieveload: bad scale %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func writeDoc(path string, doc benchDoc) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sieveload: %v\n", err)
	os.Exit(1)
}
