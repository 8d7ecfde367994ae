package load

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gpusampling/sieve/client"
	"github.com/gpusampling/sieve/internal/obs"
)

// Loop modes.
const (
	ModeClosed = "closed" // fixed worker pools, each firing back-to-back
	ModeOpen   = "open"   // paced arrivals at a target QPS, drop when saturated
)

// Config describes one load run.
type Config struct {
	// Targets are the sieved base URLs to drive. Requests pick a target at
	// random per call, so a peered cluster sees cross-owner traffic.
	Targets []string
	// Workloads are the scenario names to run concurrently (WorkloadNames).
	Workloads []string
	// Mode selects the loop: ModeClosed ramps worker counts, ModeOpen ramps
	// offered QPS.
	Mode string
	// Duration bounds the run.
	Duration time.Duration
	// Ramp schedules the total load over elapsed time: workers in closed
	// mode, QPS in open mode, shared by all scenarios via max-min
	// allocation.
	Ramp Ramp
	// Budget is the shared global concurrency budget: the most workers
	// (closed) or in-flight requests (open) allowed across all scenarios.
	// 0 means unbounded (the ramp alone limits closed-mode workers).
	Budget int
	// Dist is the popularity distribution over the catalog.
	Dist Dist
	// Seed makes the run reproducible: it derives every worker's RNG and,
	// via Salt, the run's cache salt.
	Seed int64
	// Theta is the sampling budget parameter sent on every request.
	Theta float64
	// Methods is the sampling-methodology pool workload-mode scenarios draw
	// from per request (empty = server default only). See Env.Methods.
	Methods []string
	// Timeout bounds each request and the closing /metrics snapshot (0 =
	// requests unbounded, snapshot bounded by defaultScrapeTimeout).
	Timeout time.Duration
	// Catalog is the profile set (BuildCatalog). Entry 0 is the zipfian hot
	// spot.
	Catalog []Profile
	// Snapshot is the period between progress lines (0 = silent).
	Snapshot time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// scenario is one workload's live run state.
type scenario struct {
	w    Workload
	name string

	done    atomic.Int64  // completed (recorded) requests
	errs    atomic.Int64  // 4xx/5xx/transport outcomes
	refills atomic.Int64  // recorded ops that refilled an evicted plan
	offered atomic.Int64  // open mode: scheduled arrivals incl. drops
	dropped atomic.Int64  // open mode: arrivals shed at the budget
	rate    atomic.Uint64 // open mode: allocated QPS (float64 bits)

	byClass [nClasses]atomic.Int64
	latency *obs.Histogram // completed-request latencies, seconds
}

// Status classes for the latency × outcome breakdown. "err" is a transport
// failure: no HTTP response at all.
const nClasses = 5

var classLabels = [nClasses]string{"2xx", "3xx", "4xx", "5xx", "err"}

func classIndex(status int, err error) int {
	switch {
	case err != nil:
		return 4
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

// defaultScrapeTimeout bounds the post-run /metrics snapshot when
// Config.Timeout leaves requests unbounded.
const defaultScrapeTimeout = 30 * time.Second

// Runner drives one configured load run. Build with NewRunner, run once
// with Run.
type Runner struct {
	cfg Config
	env *Env

	// latency pools every scenario's completed-request latencies (seconds).
	latency *obs.Histogram

	scenarios []*scenario
}

// NewRunner validates the config, connects the target clients, and
// instantiates the scenarios.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Mode != ModeClosed && cfg.Mode != ModeOpen {
		return nil, fmt.Errorf("load: mode %q (want %s or %s)", cfg.Mode, ModeClosed, ModeOpen)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("load: non-positive duration %s", cfg.Duration)
	}
	if len(cfg.Ramp) == 0 {
		return nil, fmt.Errorf("load: empty ramp schedule")
	}
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("load: no workloads selected")
	}
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("load: negative budget %d", cfg.Budget)
	}
	// One shared transport sized for the run's concurrency: the stdlib
	// default keeps only 2 idle connections per host, so a high-QPS run
	// would open and close a socket per request and stall on ephemeral-port
	// exhaustion within seconds.
	idle := cfg.Budget
	if idle <= 0 || idle < 64 {
		idle = 64
	}
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        idle * 2,
		MaxIdleConnsPerHost: idle,
		IdleConnTimeout:     90 * time.Second,
	}}
	clients := make([]*client.Client, 0, len(cfg.Targets))
	for _, t := range cfg.Targets {
		// The harness never retries: a retry would silently re-shape the
		// offered load and hide the target's error rate.
		c, err := client.New(t, client.WithHTTPClient(hc), client.WithTimeout(cfg.Timeout), client.WithRetries(0))
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
	}
	env, err := NewEnv(clients, cfg.Catalog, cfg.Theta, uint64(cfg.Seed))
	if err != nil {
		return nil, err
	}
	env.Methods = cfg.Methods
	// Fail fast on bad distribution parameters instead of inside a worker.
	if _, err := cfg.Dist.Picker(rand.New(rand.NewSource(1)), len(cfg.Catalog)); err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg, env: env, latency: obs.NewHistogram()}
	seen := map[string]bool{}
	for _, name := range cfg.Workloads {
		if seen[name] {
			return nil, fmt.Errorf("load: workload %q selected twice", name)
		}
		seen[name] = true
		w, err := NewWorkload(name)
		if err != nil {
			return nil, err
		}
		r.scenarios = append(r.scenarios, &scenario{w: w, name: name, latency: obs.NewHistogram()})
	}
	return r, nil
}

// newWorker builds the deterministic per-slot worker state: the RNG seed
// depends only on (run seed, scenario index, slot), so a re-run with the
// same config replays the same per-slot request sequences.
func (r *Runner) newWorker(scenarioIdx, slot int) *Worker {
	seed := r.cfg.Seed + int64(scenarioIdx+1)*1_000_003 + int64(slot+1)*7919
	rng := rand.New(rand.NewSource(seed))
	pick, err := r.cfg.Dist.Picker(rng, len(r.env.Catalog))
	if err != nil {
		// Parameters were validated in NewRunner; this cannot happen.
		panic(err)
	}
	return &Worker{RNG: rng, Pick: pick, Env: r.env}
}

// do runs one op of the scenario on wk and records it, unless the run's
// deadline cut it short: its latency would measure the harness, not the
// service. It reports whether the op was recorded.
func (r *Runner) do(ctx context.Context, sc *scenario, wk *Worker) bool {
	wk.refilled = false
	t0 := time.Now()
	status, err := sc.w.Do(ctx, wk)
	if ctx.Err() != nil {
		return false
	}
	if wk.refilled {
		sc.refills.Add(1)
	}
	r.observe(sc, status, err, time.Since(t0))
	return true
}

// observe records one completed request into the pooled and per-workload
// latency histograms and the per-workload counters.
func (r *Runner) observe(sc *scenario, status int, err error, d time.Duration) {
	sc.done.Add(1)
	ci := classIndex(status, err)
	sc.byClass[ci].Add(1)
	if ci >= 2 {
		sc.errs.Add(1)
	}
	r.latency.ObserveDuration(d)
	sc.latency.ObserveDuration(d)
}

// Run executes the configured load: snapshot the targets' /metrics, drive
// the loop for the configured duration, snapshot again, and return the
// report with the server-side deltas attached. Cancelling ctx ends the pass
// early but still reports what completed: the closing snapshot runs detached
// from ctx, bounded by Config.Timeout.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	before, err := r.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("load: pre-run metrics scrape: %w", err)
	}
	start := time.Now()
	runCtx, cancel := context.WithTimeout(ctx, r.cfg.Duration)
	defer cancel()

	stopSnap := r.startSnapshots(runCtx, start)
	switch r.cfg.Mode {
	case ModeClosed:
		r.runClosed(runCtx, start)
	case ModeOpen:
		r.runOpen(runCtx, start)
	}
	stopSnap()
	elapsed := time.Since(start)

	timeout := r.cfg.Timeout
	if timeout <= 0 {
		timeout = defaultScrapeTimeout
	}
	scrapeCtx, cancelScrape := context.WithTimeout(context.WithoutCancel(ctx), timeout)
	defer cancelScrape()
	after, err := r.scrape(scrapeCtx)
	if err != nil {
		return nil, fmt.Errorf("load: post-run metrics scrape: %w", err)
	}
	return r.buildReport(before, after, elapsed), nil
}

// runClosed maintains per-scenario worker pools sized by the ramp schedule:
// every control tick, the ramp's current total (clamped to the budget) is
// split across scenarios by max-min allocation over their capacity caps,
// and each pool grows or shrinks to its allocation. A re-grown slot reuses
// its deterministic seed, so churn does not change the request streams.
func (r *Runner) runClosed(ctx context.Context, start time.Time) {
	pools := make([][]chan struct{}, len(r.scenarios))
	var wg sync.WaitGroup

	resize := func() {
		total := int(math.Round(r.cfg.Ramp.TargetAt(time.Since(start))))
		if r.cfg.Budget > 0 && total > r.cfg.Budget {
			total = r.cfg.Budget
		}
		demands := make([]int, len(r.scenarios))
		for i, sc := range r.scenarios {
			d := total
			if c := sc.w.Cap(); c > 0 && c < d {
				d = c
			}
			demands[i] = d
		}
		alloc := MaxMinAlloc(total, demands)
		for i, n := range alloc {
			for len(pools[i]) < n {
				slot := len(pools[i])
				stop := make(chan struct{})
				pools[i] = append(pools[i], stop)
				sc, wk := r.scenarios[i], r.newWorker(i, slot)
				wg.Add(1)
				go func() {
					defer wg.Done()
					r.workerLoop(ctx, stop, sc, wk)
				}()
			}
			for len(pools[i]) > n {
				last := len(pools[i]) - 1
				close(pools[i][last])
				pools[i] = pools[i][:last]
			}
		}
	}

	resize()
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			for _, pool := range pools {
				for _, stop := range pool {
					close(stop)
				}
			}
			wg.Wait()
			return
		case <-tick.C:
			resize()
		}
	}
}

// workerLoop fires requests back-to-back until stopped or the run deadline
// cuts one short.
func (r *Runner) workerLoop(ctx context.Context, stop <-chan struct{}, sc *scenario, wk *Worker) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		default:
		}
		if !r.do(ctx, sc, wk) {
			return
		}
	}
}

// runOpen paces arrivals at the ramp's QPS target, split equally across
// scenarios, and sheds arrivals that would exceed the shared in-flight
// budget — offered load stays on schedule whether or not the target keeps
// up, which is what makes offered-vs-achieved QPS meaningful.
func (r *Runner) runOpen(ctx context.Context, start time.Time) {
	var sem chan struct{}
	if r.cfg.Budget > 0 {
		sem = make(chan struct{}, r.cfg.Budget)
	}

	setRates := func() {
		share := r.cfg.Ramp.TargetAt(time.Since(start)) / float64(len(r.scenarios))
		for _, sc := range r.scenarios {
			sc.rate.Store(math.Float64bits(share))
		}
	}
	setRates()

	var dispWG, reqWG sync.WaitGroup
	dispWG.Add(1)
	go func() {
		defer dispWG.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				setRates()
			}
		}
	}()
	for i := range r.scenarios {
		dispWG.Add(1)
		go func(i int) {
			defer dispWG.Done()
			r.dispatch(ctx, i, sem, &reqWG)
		}(i)
	}
	dispWG.Wait()
	reqWG.Wait()
}

// dispatch is one scenario's open-loop arrival pacer. Worker states are
// pooled and reused across requests, keeping per-slot RNG streams
// deterministic even though requests overlap.
func (r *Runner) dispatch(ctx context.Context, i int, sem chan struct{}, reqWG *sync.WaitGroup) {
	sc := r.scenarios[i]
	free := make(chan *Worker, 4096)
	created := 0
	getWorker := func() *Worker {
		select {
		case wk := <-free:
			return wk
		default:
			wk := r.newWorker(i, created)
			created++
			return wk
		}
	}

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	next := time.Now()
	for {
		rate := math.Float64frombits(sc.rate.Load())
		if rate < 1e-3 {
			timer.Reset(100 * time.Millisecond)
			select {
			case <-ctx.Done():
				return
			case <-timer.C:
			}
			next = time.Now()
			continue
		}
		next = next.Add(time.Duration(float64(time.Second) / rate))
		if wait := time.Until(next); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return
			case <-timer.C:
			}
		} else if wait < -time.Second {
			// Fell far behind (rate jump, long GC pause): resynchronize
			// instead of firing a catch-up burst.
			next = time.Now()
		}
		sc.offered.Add(1)
		if sem != nil {
			select {
			case sem <- struct{}{}:
			default:
				sc.dropped.Add(1)
				continue
			}
		}
		wk := getWorker()
		reqWG.Add(1)
		go func() {
			defer reqWG.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			r.do(ctx, sc, wk)
			select {
			case free <- wk:
			default:
			}
		}()
	}
}

// startSnapshots emits periodic per-scenario progress lines to cfg.Logf.
// The returned stop waits for the printer to finish.
func (r *Runner) startSnapshots(ctx context.Context, start time.Time) (stop func()) {
	if r.cfg.Snapshot <= 0 || r.cfg.Logf == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := make([]int64, len(r.scenarios))
		tick := time.NewTicker(r.cfg.Snapshot)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				elapsed := time.Since(start)
				for i, sc := range r.scenarios {
					n := sc.done.Load()
					qps := float64(n-last[i]) / r.cfg.Snapshot.Seconds()
					last[i] = n
					r.cfg.Logf("t=%5.1fs %-10s n=%-7d qps=%7.1f p50=%6.1fms p99=%6.1fms errs=%d dropped=%d",
						elapsed.Seconds(), sc.name, n, qps,
						sc.latency.Quantile(0.50)*1e3, sc.latency.Quantile(0.99)*1e3,
						sc.errs.Load(), sc.dropped.Load())
				}
			}
		}
	}()
	return func() { <-done }
}
