// Package experiments is the reproduction harness: one function per table
// and figure of the paper's evaluation (Section V), producing printable rows
// and machine-readable results. cmd/experiments and the root bench suite are
// thin wrappers around this package.
package experiments

import (
	"context"
	"fmt"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/cudamodel"
	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/pks"
	"github.com/gpusampling/sieve/internal/profiler"
	"github.com/gpusampling/sieve/internal/sampler"
	"github.com/gpusampling/sieve/internal/stats"
	"github.com/gpusampling/sieve/internal/workloads"

	// Link the alternate sampling methodologies into the evaluation so the
	// accuracy tables can compare every registered strategy.
	_ "github.com/gpusampling/sieve/internal/sampler/rss"
	_ "github.com/gpusampling/sieve/internal/sampler/twophase"
)

// Config holds the experiment-wide knobs.
type Config struct {
	// Scale is the workload generation scale in (0, 1]; 0 selects
	// DefaultScale.
	Scale float64
	// Theta is Sieve's CoV threshold; 0 selects core.DefaultTheta.
	Theta float64
	// Seed drives PKS's k-means and random selection.
	Seed int64
	// Parallelism bounds the workers inside the sampling pipelines
	// (stratification fan-out, PKS k-sweep); 0 selects GOMAXPROCS,
	// 1 forces sequential execution. Results are identical either way.
	Parallelism int
	// Stream routes Sieve stratification through the bounded-memory
	// streaming pipeline (core.StratifyStreamContext) instead of the
	// materializing one. With the default ReservoirSize every
	// experiment-scale kernel fits its reservoir, so tables and figures are
	// unchanged.
	Stream bool
	// ReservoirSize bounds the rows retained per kernel in Stream mode;
	// 0 selects a generous default that keeps experiment-scale workloads
	// exact (the evaluation needs full membership lists for Speedup and
	// WeightedCycleCoV).
	ReservoirSize int
	// Ctx, when non-nil, is the context every sampling pipeline runs under;
	// attach an obs.Collector to it (cmd/experiments -report/-trace-out) to
	// record per-stage spans across all experiments. Nil means Background.
	Ctx context.Context
	// Methods restricts which sampling methodologies the accuracy
	// comparisons evaluate (canonical names, e.g. "sieve", "pks",
	// "twophase", "rss"); nil or empty selects every registered strategy.
	// Sieve and PKS are always prepared regardless — the other figures
	// need their plans — so the filter only prunes the extra strategies.
	Methods []string
}

// methodNames resolves the methodology list for the accuracy comparisons:
// the configured subset, or every registered strategy with the two paper
// baselines leading for readable tables.
func (c Config) methodNames() []string {
	if len(c.Methods) > 0 {
		return c.Methods
	}
	names := []string{core.MethodSieve, sampler.MethodPKS}
	for _, n := range sampler.Names() {
		if n != core.MethodSieve && n != sampler.MethodPKS {
			names = append(names, n)
		}
	}
	return names
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
	if c.ReservoirSize == 0 {
		c.ReservoirSize = 1 << 20
	}
	return c
}

// stratify runs Sieve stratification at the given θ through whichever
// pipeline the config selects — every experiment call site goes through
// here so -stream exercises the streaming path end to end.
func (c Config) stratify(rows []core.InvocationProfile, theta float64) (*core.Result, error) {
	opts := core.Options{Theta: theta, Parallelism: c.Parallelism}
	if !c.Stream {
		return core.StratifyContext(c.ctx(), rows, opts)
	}
	return core.StratifyStreamContext(c.ctx(), core.SliceSource(rows),
		core.StreamOptions{Options: opts, ReservoirSize: c.ReservoirSize})
}

// Evaluation is the per-workload comparison of Sieve and PKS on one
// architecture — the raw material of Figs. 3–6 and 8.
type Evaluation struct {
	Name  string
	Suite string

	Invocations int
	Kernels     int

	GoldenCycles float64 // total measured cycles (golden reference)

	SieveError   float64 // |predicted-measured|/measured
	SieveSpeedup float64
	SieveCoV     float64 // weighted within-stratum cycle CoV
	SieveStrata  int

	PKSError    float64
	PKSSpeedup  float64
	PKSCoV      float64
	PKSClusters int

	// Methods is the full methodology comparison (sieve and pks included,
	// mirroring the legacy fields above), one entry per evaluated strategy in
	// table order.
	Methods []MethodEval
}

// MethodEval is one sampling methodology's accuracy on one workload.
type MethodEval struct {
	// Method is the canonical registry name.
	Method string
	// Error is |predicted-measured|/measured cycles.
	Error float64
	// Units is the number of sampling units backing the plan (strata for the
	// stratified methods, clusters for pks).
	Units int
	// Interval is the methodology's own error confidence interval, when the
	// strategy quantifies one (twophase, rss); nil otherwise.
	Interval *core.ErrorInterval
}

// methodRows returns the evaluation's per-method comparison, synthesizing
// the two legacy columns for evaluations built before Methods existed (or
// synthetic test fixtures that only populate them).
func (ev *Evaluation) methodRows() []MethodEval {
	if len(ev.Methods) > 0 {
		return ev.Methods
	}
	return []MethodEval{
		{Method: core.MethodSieve, Error: ev.SieveError, Units: ev.SieveStrata},
		{Method: sampler.MethodPKS, Error: ev.PKSError, Units: ev.PKSClusters},
	}
}

// prepared bundles the expensive per-workload artifacts shared by the
// figures: the generated workload, golden cycles and both sampling plans.
type prepared struct {
	w      *cudamodel.Workload
	hw     *gpu.Model
	golden []float64
	total  float64

	sieveProfile []core.InvocationProfile
	sieve        *core.Result
	sieveProfSec float64 // modeled instruction-count profiling time

	features    [][]float64
	pks         *pks.Result
	fullProfSec float64 // modeled 12-metric profiling time

	// methodPlans holds the registry-built plans of the extra strategies
	// (twophase, rss, …) keyed by method name; sieve and pks live in their
	// dedicated fields above.
	methodPlans map[string]*core.Result
}

// prepare generates the workload and runs both sampling pipelines on the
// baseline (Ampere) hardware model.
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

	// Sieve pipeline: instruction-count profile → stratification.
	icProf, err := profiler.NewInstructionCountProfiler().Profile(w, hw)
	if err != nil {
		return nil, err
	}
	p.sieveProfile = icProf.Rows()
	p.sieveProfSec = icProf.WallSeconds
	p.sieve, err = cfg.stratify(p.sieveProfile, cfg.Theta)
	if err != nil {
		return nil, err
	}

	// PKS pipeline: full profile → PCA → k-means with golden k-selection.
	fullProf, err := profiler.NewFullProfiler().Profile(w, hw)
	if err != nil {
		return nil, err
	}
	p.features = fullProf.Features()
	p.fullProfSec = fullProf.WallSeconds
	p.pks, err = pks.SelectContext(cfg.ctx(), p.features, p.golden, pks.Options{Seed: cfg.Seed, Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}

	// Extra strategies from the sampler registry (twophase, rss, …), planned
	// from the same rows so the accuracy tables compare methodologies on
	// identical inputs.
	p.methodPlans = make(map[string]*core.Result)
	sp := &sampler.Profile{Rows: p.sieveProfile, Features: p.features, GoldenCycles: p.golden}
	for _, m := range cfg.methodNames() {
		if m == core.MethodSieve || m == sampler.MethodPKS {
			continue
		}
		plan, err := sampler.Run(cfg.ctx(), m, sp, sampler.Options{
			Core: core.Options{Theta: cfg.Theta, Parallelism: cfg.Parallelism},
			Seed: cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %s plan: %w", spec.Name, m, err)
		}
		p.methodPlans[m] = plan
	}
	return p, nil
}

// methodEvals builds the per-methodology accuracy rows for one prepared
// workload, reusing the already-computed sieve and pks errors.
func (p *prepared) methodEvals(cfg Config, sieveErr, pksErr float64) ([]MethodEval, error) {
	src := cyclesFrom(p.golden)
	var out []MethodEval
	for _, m := range cfg.methodNames() {
		switch m {
		case core.MethodSieve:
			out = append(out, MethodEval{Method: m, Error: sieveErr, Units: p.sieve.NumStrata()})
		case sampler.MethodPKS:
			out = append(out, MethodEval{Method: m, Error: pksErr, Units: p.pks.K})
		default:
			plan, ok := p.methodPlans[m]
			if !ok {
				return nil, fmt.Errorf("method %q was not prepared (configured after Warm?)", m)
			}
			pred, err := plan.Predict(src)
			if err != nil {
				return nil, fmt.Errorf("%s predict: %w", m, err)
			}
			out = append(out, MethodEval{
				Method:   m,
				Error:    relErr(pred.Cycles, p.total),
				Units:    plan.NumStrata(),
				Interval: plan.Interval,
			})
		}
	}
	return out, nil
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
