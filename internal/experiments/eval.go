// Package experiments is the reproduction harness: one function per table
// and figure of the paper's evaluation (Section V), producing printable rows
// and machine-readable results. cmd/experiments and the root bench suite are
// thin wrappers around this package.
package experiments

import (
	"context"
	"fmt"
	"slices"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/cudamodel"
	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/pks"
	"github.com/gpusampling/sieve/internal/profiler"
	"github.com/gpusampling/sieve/internal/sampler"
	"github.com/gpusampling/sieve/internal/stats"
	"github.com/gpusampling/sieve/internal/workloads"
)

// Config holds the experiment-wide knobs.
type Config struct {
	// Scale is the workload generation scale in (0, 1]; 0 selects
	// DefaultScale.
	Scale float64
	// Theta is Sieve's CoV threshold; 0 selects core.DefaultTheta.
	Theta float64
	// Seed drives every seeded draw: PKS's k-means and random selection,
	// twophase's pilot subsample and rss's ranked-set draws.
	Seed int64
	// Parallelism bounds the workers inside the sampling pipelines
	// (stratification fan-out, PKS k-sweep); 0 selects GOMAXPROCS,
	// 1 forces sequential execution. Results are identical either way.
	Parallelism int
	// Ctx, when non-nil, is the context every sampling pipeline runs under;
	// attach an obs.Collector to it (cmd/experiments -report/-trace-out) to
	// record per-stage spans across all experiments. Nil means Background.
	Ctx context.Context
	// Methods selects the sampling methodologies the accuracy comparisons
	// add to sieve and pks (canonical names, e.g. "twophase", "rss"); nil
	// or empty selects every other method. Sieve and PKS are always
	// planned and compared, since the other figures read their plans.
	Methods []string
}

// methodNames lists the methodologies every workload is planned with, in
// table order: the two paper baselines, then the configured (or every
// other) method.
func (c Config) methodNames() []string {
	names := []string{core.MethodSieve, sampler.MethodPKS}
	extra := c.Methods
	if len(extra) == 0 {
		extra = sampler.Names()
	}
	for _, n := range extra {
		if !slices.Contains(names, n) {
			names = append(names, n)
		}
	}
	return names
}

// options returns the sampler options every experiment plans with: the
// configured θ, parallelism and seed, PKS's own options included.
func (c Config) options() sampler.Options {
	return sampler.Options{
		Core: core.Options{Theta: c.Theta, Parallelism: c.Parallelism},
		Seed: c.Seed,
		PKS:  pks.Options{Seed: c.Seed, Parallelism: c.Parallelism},
	}
}

// ctx returns the configured context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// DefaultScale keeps full-suite experiments laptop-sized while preserving the
// distributional shapes the experiments measure.
const DefaultScale = 0.05

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = DefaultScale
	}
	if c.Theta == 0 {
		c.Theta = core.DefaultTheta
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Evaluation is the per-workload comparison of the sampling methodologies
// on one architecture — the raw material of Figs. 3–6 and 8.
type Evaluation struct {
	Name  string
	Suite string

	Invocations int
	Kernels     int

	GoldenCycles float64 // total measured cycles (golden reference)

	// Methods holds one entry per planned methodology in table order,
	// sieve and pks first.
	Methods []MethodEval
}

// MethodEval is one sampling methodology's accuracy on one workload.
type MethodEval struct {
	// Method is the canonical method name.
	Method string
	// Error is |predicted-measured|/measured cycles.
	Error float64
	// Units is the number of sampling units backing the plan (strata for the
	// stratified methods, clusters for pks).
	Units int
	// Speedup is total golden cycles over the representatives' cycles.
	Speedup float64
	// CoV is the invocation-weighted within-unit cycle CoV (Fig. 4).
	CoV float64
	// Interval is the methodology's own error confidence interval, when the
	// strategy quantifies one (twophase, rss); nil otherwise.
	Interval *core.ErrorInterval
}

// Method returns the named methodology's entry, or the zero MethodEval if
// the evaluation has none. Every evaluation carries sieve and pks.
func (ev *Evaluation) Method(name string) MethodEval {
	for _, me := range ev.Methods {
		if me.Method == name {
			return me
		}
	}
	return MethodEval{}
}

// prepared bundles the expensive per-workload artifacts shared by the
// figures: the generated workload, golden cycles, the sampler profile and
// every method's plan.
type prepared struct {
	w      *cudamodel.Workload
	hw     *gpu.Model
	golden []float64
	total  float64

	// profile holds the instruction-count rows Sieve plans from, the
	// 12-characteristic features PKS clusters and the golden cycles PKS
	// calibrates k against.
	profile      *sampler.Profile
	sieveProfSec float64 // modeled instruction-count profiling time
	fullProfSec  float64 // modeled 12-metric profiling time

	// plans holds each methodology's plan, keyed by method name.
	plans map[string]*core.Result
}

// prepare generates the workload, profiles it on the baseline (Ampere)
// hardware model and plans it with every configured methodology.
func prepare(spec workloads.Spec, cfg Config) (*prepared, error) {
	cfg = cfg.withDefaults()
	w, err := workloads.Generate(spec, cfg.Scale)
	if err != nil {
		return nil, err
	}
	hw, err := gpu.NewModel(gpu.Ampere())
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w, hw: hw}
	p.golden = hw.MeasureWorkload(w)
	p.total = stats.Sum(p.golden)

	icProf, err := profiler.InstructionCounts(w, hw)
	if err != nil {
		return nil, err
	}
	fullProf, err := profiler.Full(w, hw)
	if err != nil {
		return nil, err
	}
	p.profile = &sampler.Profile{Rows: icProf.Rows(), Features: fullProf.Features(), GoldenCycles: p.golden}
	p.sieveProfSec = icProf.WallSeconds
	p.fullProfSec = fullProf.WallSeconds

	p.plans = make(map[string]*core.Result)
	for _, m := range cfg.methodNames() {
		if p.plans[m], err = sampler.Run(cfg.ctx(), m, p.profile, cfg.options()); err != nil {
			return nil, fmt.Errorf("%s: %s plan: %w", spec.Name, m, err)
		}
	}
	return p, nil
}

// predictError is a plan's |predicted-measured|/measured cycles on the
// golden run.
func (p *prepared) predictError(plan *core.Result) (float64, error) {
	pred, err := plan.Predict(cyclesFrom(p.golden))
	if err != nil {
		return 0, err
	}
	return relErr(pred.Cycles, p.total), nil
}

// methodEval measures one planned methodology against the golden run.
func (p *prepared) methodEval(method string) (MethodEval, error) {
	plan := p.plans[method]
	me := MethodEval{Method: method, Units: plan.NumStrata(), Interval: plan.Interval}
	var err error
	if me.Error, err = p.predictError(plan); err != nil {
		return me, err
	}
	if me.Speedup, err = plan.Speedup(p.golden); err != nil {
		return me, err
	}
	me.CoV, err = plan.WeightedCycleCoV(p.golden)
	return me, err
}

// cyclesFrom adapts a golden cycle slice into a CycleSource.
func cyclesFrom(golden []float64) func(int) (float64, error) {
	return func(i int) (float64, error) {
		if i < 0 || i >= len(golden) {
			return 0, fmt.Errorf("invocation %d outside measured range %d", i, len(golden))
		}
		return golden[i], nil
	}
}
