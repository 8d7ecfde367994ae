// Package sieve implements Sieve, the stratified GPU-compute workload
// sampling methodology of Naderan-Tahan, SeyyedAghaei and Eeckhout
// (ISPASS 2023), together with everything needed to reproduce the paper's
// evaluation: the PKS baseline (Baddouh et al., MICRO 2021), a synthetic
// generator for the Parboil/Rodinia/SDK/Cactus/MLPerf workloads of Table I,
// GPU hardware timing models for the RTX 3080 (Ampere) and RTX 2080 Ti
// (Turing), Nsight- and NVBit-style profilers, a SASS-like trace format, and
// a trace-driven cycle-level simulator.
//
// The core workflow mirrors the paper's Fig. 1:
//
//	w, _ := sieve.GenerateWorkload("lmc", 0.05)          // or bring your own profile
//	hw, _ := sieve.NewHardware(sieve.Ampere())
//	profile, _ := sieve.ProfileInstructionCounts(w, hw)  // one metric per invocation
//	plan, _ := sieve.Sample(sieve.ProfileRows(profile), sieve.Options{})
//	pred, _ := plan.Predict(func(i int) (float64, error) {
//	    return hw.Cycles(&w.Invocations[i]), nil         // simulate/measure reps only
//	})
//	fmt.Println(pred.Cycles, pred.IPC)
//
// Sample groups kernel invocations into strata per kernel by instruction-
// count variability (Tier-1 exact, Tier-2 CoV < θ, Tier-3 split by kernel
// density estimation), selects one representative per stratum, and weights it
// by instruction share. Predict combines per-representative IPC with the
// weighted harmonic mean.
package sieve

import (
	"context"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/profiler"
	"github.com/gpusampling/sieve/internal/sampler"

	// Register the alternate sampling methodologies so SampleMethod and the
	// sieved service can select them by name.
	_ "github.com/gpusampling/sieve/internal/sampler/rss"
	_ "github.com/gpusampling/sieve/internal/sampler/twophase"
)

// Sentinel errors shared by the sampling entry points. They arrive wrapped
// with call-site detail, so resolve them with errors.Is; the sieved service
// maps them onto HTTP status codes (invalid options → 400, empty profile and
// sampled-plan metric requests → 422).
var (
	// ErrInvalidTheta marks a rejected CoV threshold (explicit θ = 0 or θ < 0).
	ErrInvalidTheta = core.ErrInvalidTheta
	// ErrEmptyProfile marks a profile with no invocation rows.
	ErrEmptyProfile = core.ErrEmptyProfile
	// ErrSampledPlan marks an exact-membership metric (Speedup,
	// WeightedCycleCoV) requested on a sampled streaming plan.
	ErrSampledPlan = core.ErrSampledPlan
)

// DefaultTheta is the paper's recommended CoV threshold θ = 0.4.
const DefaultTheta = core.DefaultTheta

// Tier classifies a kernel's instruction-count variability.
type Tier = core.Tier

// Tier values.
const (
	Tier1 = core.Tier1
	Tier2 = core.Tier2
	Tier3 = core.Tier3
)

// SelectionPolicy picks the representative invocation within a stratum.
type SelectionPolicy = core.SelectionPolicy

// Selection policies: the paper's default picks the first-chronological
// invocation with the stratum's dominant CTA size.
const (
	SelectDominantCTAFirst   = core.SelectDominantCTAFirst
	SelectFirstChronological = core.SelectFirstChronological
	SelectMaxCTA             = core.SelectMaxCTA
)

// Splitter chooses the Tier-3 sub-stratification algorithm.
type Splitter = core.Splitter

// Splitters: KDE valley-cutting (the paper's method), equal-width binning
// and EM-fitted Gaussian mixtures (ablation baselines).
const (
	SplitKDE        = core.SplitKDE
	SplitEqualWidth = core.SplitEqualWidth
	SplitGMM        = core.SplitGMM
)

// Options configures Sample. The zero value uses the paper's defaults
// (θ = 0.4, dominant-CTA-first selection, KDE splitting) and stratifies
// kernels in parallel across GOMAXPROCS workers when the profile is large
// enough to amortize the pool (MinParallelWork rows); set Parallelism to 1
// to force sequential execution. Results are byte-identical at any
// parallelism and any work threshold.
type Options = core.Options

// InvocationProfile is one profiled kernel invocation: kernel name,
// chronological index, dynamic instruction count and CTA size — everything
// Sieve needs.
type InvocationProfile = core.InvocationProfile

// Stratum is one group of same-kernel, similar-instruction-count invocations
// with its representative and weight.
type Stratum = core.Stratum

// Plan is a complete sampling plan: the strata, their representatives and
// weights. It is the unit a simulator consumes.
type Plan = core.Result

// Prediction is an application-level performance estimate derived from
// representative cycle counts.
type Prediction = core.Prediction

// CycleSource supplies measured or simulated cycles by invocation index.
type CycleSource = core.CycleSource

// Sample stratifies a profiled workload and selects weighted representative
// invocations (Sections III-B and III-C of the paper). It is SampleContext
// with context.Background().
func Sample(profile []InvocationProfile, opts Options) (*Plan, error) {
	return SampleContext(context.Background(), profile, opts)
}

// SampleContext is Sample with cancellation: the per-kernel stratification
// workers observe ctx between kernels, so a cancelled or timed-out caller
// gets ctx.Err() back promptly and releases its worker slots instead of
// pinning them for the rest of the run. This is the entry point long-lived
// hosts should call with a per-request context. Other sampling
// methodologies are selected by name through SampleMethodContext.
func SampleContext(ctx context.Context, profile []InvocationProfile, opts Options) (*Plan, error) {
	return core.StratifyContext(ctx, profile, opts)
}

// Methods lists every registered sampling methodology by name, sorted —
// "sieve" and "pks" plus the strategy packages linked into the binary
// (twophase, rss, and any future registrations).
func Methods() []string { return sampler.Names() }

// MethodProfile is the input a sampling methodology plans from: the
// instruction-count rows every method needs (or, in stream mode, a Source
// yielding them), plus the optional feature vectors and golden cycle counts
// that feature-clustering methods (pks) require.
type MethodProfile = sampler.Profile

// MethodOptions carries the methodology knobs: the shared core options plus
// per-strategy parameters (Seed, PilotFraction, Budget, SetSize, Resamples,
// PKS) and the default sieve method's bounded-memory stream mode (Stream,
// ReservoirSize).
type MethodOptions = sampler.Options

// ErrorInterval is a methodology-supplied confidence interval on a plan's
// relative estimation error, attached to plans built by strategies that
// quantify their own uncertainty (rss resampling, twophase pilot variance).
type ErrorInterval = core.ErrorInterval

// SampleMethod builds a sampling plan with the named registered methodology
// ("" selects the default "sieve"). It is SampleMethodContext with
// context.Background().
func SampleMethod(method string, p *MethodProfile, opts MethodOptions) (*Plan, error) {
	return sampler.Run(context.Background(), method, p, opts)
}

// SampleMethodContext is SampleMethod with cancellation, observed between
// strata and resamples; a stream-mode pass also observes it every 1024
// ingested rows and returns ctx.Err().
func SampleMethodContext(ctx context.Context, method string, p *MethodProfile, opts MethodOptions) (*Plan, error) {
	return sampler.Run(ctx, method, p, opts)
}

// TierFractions reports, for each θ, the fraction of invocations classified
// Tier-1/2/3 — the paper's Fig. 2 quantity.
func TierFractions(profile []InvocationProfile, thetas []float64) ([][3]float64, error) {
	return core.TierFractions(profile, thetas)
}

// ErrorBound is a pre-simulation, golden-free heuristic estimate of a plan's
// prediction uncertainty (stratified-sampling theory with instruction-count
// dispersion as the proxy). Obtain one with Plan.EstimateErrorBound.
type ErrorBound = core.ErrorBound

// KernelSummary characterizes one kernel's invocation behaviour.
type KernelSummary = core.KernelSummary

// Characterize summarizes every kernel of a profile at the given θ
// (DefaultTheta if zero), ordered by descending instruction share — the
// workload-analysis side of the Sieve workflow.
func Characterize(profile []InvocationProfile, theta float64) ([]KernelSummary, error) {
	return CharacterizeContext(context.Background(), profile, theta)
}

// CharacterizeContext is Characterize with cancellation, observed by the
// underlying stratification pass.
func CharacterizeContext(ctx context.Context, profile []InvocationProfile, theta float64) ([]KernelSummary, error) {
	return core.CharacterizeContext(ctx, profile, theta)
}

// ProfileRows converts a profiler table into Sample's input rows.
func ProfileRows(p *Profile) []InvocationProfile { return p.Rows() }

// Profile is a per-invocation profile table (one row per kernel invocation).
type Profile = profiler.Profile

// Record is one profiled invocation row.
type Record = profiler.Record
