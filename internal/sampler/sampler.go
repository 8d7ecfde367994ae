// Package sampler is the sampling-methodology layer: one fixed table of the
// four methods the repo compares, and the option and profile types they
// share.
//
// The paper's stratified sampler (sieve, core.StratifyContext) and its PKS
// baseline sit beside the two CPU-sampling methodologies from the related
// work: two-phase stratified sampling with Neyman allocation (twophase) and
// ranked-set sampling with repeated subsampling (rss). The root API, the
// service, the CLIs, the experiments tables and the load harness all plan
// through Run and list the methods with Names.
package sampler

import (
	"context"
	"errors"
	"fmt"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/obs"
	"github.com/gpusampling/sieve/internal/pks"
)

// Profile is the input every method plans from: its Rows, or in stream
// mode either Rows or a Source yielding them, never both. Features and
// GoldenCycles are optional side channels that feature-based methodologies
// (PKS) consume and instruction-count-only methodologies ignore.
type Profile struct {
	// Rows is the per-invocation instruction-count profile, chronological.
	Rows []core.InvocationProfile
	// Source yields the rows once, in ascending Index order, so stream mode
	// never builds the row table.
	Source core.RowSource
	// Features holds one characteristic vector per row (chronological,
	// parallel to Rows) for feature-clustering methodologies. Nil for
	// methods that don't need it.
	Features [][]float64
	// GoldenCycles holds the measured reference cycle count per row
	// (positional, parallel to Rows) for golden-calibrated methodologies.
	// Nil for methods that don't need it.
	GoldenCycles []float64

	// memo, when set by Memoize, keeps the last base stratification
	// Stratify computed.
	memo *stratifyMemo
}

// DefaultSeed drives every seeded draw (pilot subsampling, ranked-set
// draws) when Options.Seed is zero.
const DefaultSeed = 1

// Options configures a method run. Core carries the knobs shared with the
// default sampler (θ, selection policy, splitter, parallelism); the rest are
// method-specific and ignored by methods that don't use them.
type Options struct {
	// Core holds the stratification options.
	Core core.Options
	// Seed drives every randomized draw a method makes (two-phase pilot
	// subsampling, ranked-set draws, resampling). Same seed ⇒ byte-identical
	// plan. DefaultSeed if zero.
	Seed int64
	// PKS carries the PKS baseline's own options, forwarded verbatim to
	// pks.SelectContext — a zero value keeps pks's own defaults (including
	// its zero seed), so a pks plan has exactly pks.SelectContext's clusters.
	PKS pks.Options
	// Stream makes the sieve method plan in one bounded-memory pass
	// (core.StratifyStreamContext) keeping ReservoirSize rows per kernel,
	// with Seed seeding the reservoirs; no other method streams. The pass
	// is sequential and ignores Core.Parallelism, so a stream plan has the
	// same bytes at any worker count.
	Stream        bool
	ReservoirSize int
}

// WithDefaults fills defaults. Run applies it before a method plans, so
// callers may pass a zero Options.
func (o Options) WithDefaults() Options {
	if o.Core.Theta == 0 && !o.Core.ThetaSet {
		o.Core.Theta = core.DefaultTheta
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	return o
}

// planFunc builds one method's plan from options with defaults filled.
// Every method is deterministic: the same profile, options and seed give a
// byte-identical plan.
type planFunc func(ctx context.Context, p *Profile, opts Options) (*core.Result, error)

// methods is the fixed table of sampling methods, sorted by name.
var methods = [...]struct {
	name string
	plan planFunc
}{
	{MethodPKS, planPKS},
	{MethodRSS, planRSS},
	{core.MethodSieve, planSieve},
	{MethodTwoPhase, planTwoPhase},
}

// Names returns every method name, sorted.
func Names() []string {
	out := make([]string, len(methods))
	for i, m := range methods {
		out[i] = m.name
	}
	return out
}

// Canonical maps the empty method name to the default method ("sieve") and
// returns every other name unchanged.
func Canonical(name string) string {
	if name == "" {
		return core.MethodSieve
	}
	return name
}

// lookup returns the table index of the named method ("" selects the
// default) in the given mode. An unknown name reports the methods there are;
// stream mode is refused for every method but sieve.
func lookup(name string, stream bool) (int, error) {
	name = Canonical(name)
	for i, m := range methods {
		if m.name != name {
			continue
		}
		if stream && name != core.MethodSieve {
			return 0, fmt.Errorf("method %q does not support stream mode (only the default sieve sampler streams)", name)
		}
		return i, nil
	}
	return 0, fmt.Errorf("sampler: unknown method %q (registered: %v)", name, Names())
}

// Check validates a method name and mode before any work is done: it fails
// exactly where Run would for that name and stream flag.
func Check(name string, stream bool) error {
	_, err := lookup(name, stream)
	return err
}

// Run builds the named method's plan under a sampler.plan observability
// span (method, rows and strata attributes). It is the entry point the root
// API, the service, the CLIs and the experiments harness share. Method
// errors are returned as the method reported them: they already name their
// layer, so the default method fails with exactly the errors core reports.
func Run(ctx context.Context, method string, p *Profile, opts Options) (*core.Result, error) {
	i, err := lookup(method, opts.Stream)
	if err != nil {
		return nil, err
	}
	if p.Source != nil && (p.Rows != nil || !opts.Stream) {
		return nil, errors.New("sampler: a profile with a Source needs stream mode and no Rows")
	}
	ctx, sp := obs.StartSpan(ctx, "sampler.plan")
	defer sp.End()
	if sp.Active() {
		sp.SetAttr("method", methods[i].name)
		sp.SetAttr("rows", len(p.Rows))
	}
	res, err := methods[i].plan(ctx, p, opts.WithDefaults())
	if err != nil {
		return nil, err
	}
	if sp.Active() {
		if p.Source != nil { // every ingested row is in one tier
			sp.SetAttr("rows", res.TierInvocations[0]+res.TierInvocations[1]+res.TierInvocations[2])
		}
		sp.SetAttr("strata", len(res.Strata))
	}
	return res, nil
}

// rowsByIndex maps every row's Index to the row, for methods that re-read
// the rows of a base stratum's members.
func rowsByIndex(rows []core.InvocationProfile) map[int]core.InvocationProfile {
	out := make(map[int]core.InvocationProfile, len(rows))
	for _, r := range rows {
		out[r.Index] = r
	}
	return out
}
