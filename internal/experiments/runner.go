package experiments

import (
	"fmt"
	"sort"
	"sync"

	"github.com/gpusampling/sieve/internal/workloads"
)

// Runner memoizes the expensive per-workload pipeline artifacts (generation,
// golden measurement, profiles, every method's plan) so the figures can share
// them within one process.
type Runner struct {
	cfg Config

	mu    sync.Mutex
	cache map[string]*prepared
}

// NewRunner returns a Runner for the given configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg.withDefaults(), cache: make(map[string]*prepared)}
}

// Config returns the runner's effective configuration.
func (r *Runner) Config() Config { return r.cfg }

// get returns the memoized pipeline artifacts for a workload, preparing them
// on first use.
func (r *Runner) get(name string) (*prepared, error) {
	r.mu.Lock()
	if p, ok := r.cache[name]; ok {
		r.mu.Unlock()
		return p, nil
	}
	r.mu.Unlock()

	spec, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	p, err := prepare(spec, r.cfg)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", name, err)
	}
	r.mu.Lock()
	r.cache[name] = p
	r.mu.Unlock()
	return p, nil
}

// Warm prepares the named workloads concurrently, bounding parallelism to
// keep peak memory proportional to a few workloads.
func (r *Runner) Warm(names []string, parallelism int) error {
	if parallelism < 1 {
		parallelism = 1
	}
	sem := make(chan struct{}, parallelism)
	errs := make(chan error, len(names))
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if _, err := r.get(name); err != nil {
				errs <- err
			}
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ChallengingNames returns the Cactus and MLPerf workload names — the set
// most figures evaluate.
func ChallengingNames() []string { return challengingNames() }

// TraditionalNames returns the Parboil, Rodinia and SDK workload names.
func TraditionalNames() []string { return traditionalNames() }

// challengingNames returns the Cactus then MLPerf workload names in catalog
// order — the set most figures evaluate.
func challengingNames() []string {
	var names []string
	for _, suite := range []string{workloads.SuiteCactus, workloads.SuiteMLPerf} {
		specs, _ := workloads.BySuite(suite)
		for _, s := range specs {
			names = append(names, s.Name)
		}
	}
	return names
}

// traditionalNames returns the Parboil, Rodinia and SDK workload names in
// catalog order.
func traditionalNames() []string {
	var names []string
	for _, suite := range []string{workloads.SuiteParboil, workloads.SuiteRodinia, workloads.SuiteSDK} {
		specs, _ := workloads.BySuite(suite)
		for _, s := range specs {
			names = append(names, s.Name)
		}
	}
	return names
}

// evaluate builds the Evaluation for one prepared workload (the shared logic
// behind Figs. 3, 4, 6 and 8).
func (r *Runner) evaluate(name string) (*Evaluation, error) {
	p, err := r.get(name)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{
		Name:         p.w.Name,
		Suite:        p.w.Suite,
		Invocations:  p.w.NumInvocations(),
		Kernels:      p.w.NumKernels(),
		GoldenCycles: p.total,
	}
	for _, m := range r.cfg.methodNames() {
		me, err := p.methodEval(m)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", name, m, err)
		}
		ev.Methods = append(ev.Methods, me)
	}
	return ev, nil
}

// Evaluations returns the methodology comparison for every named workload.
func (r *Runner) Evaluations(names []string) ([]*Evaluation, error) {
	out := make([]*Evaluation, 0, len(names))
	for _, name := range names {
		ev, err := r.evaluate(name)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// relErr is |predicted-measured|/measured (measured is validated > 0 before
// reaching here).
func relErr(predicted, measured float64) float64 {
	d := predicted - measured
	if d < 0 {
		d = -d
	}
	return d / measured
}

// sortedCacheNames returns the names currently memoized (for diagnostics).
func (r *Runner) sortedCacheNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for n := range r.cache {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
