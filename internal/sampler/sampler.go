// Package sampler is the pluggable sampling-methodology subsystem: a
// Sampler interface, a registry of named strategies, and the option/profile
// types every strategy shares.
//
// The paper's stratified sampler (core.StratifyContext) and the PKS baseline
// are the first two registered strategies; internal/sampler/twophase and
// internal/sampler/rss add the two NVIDIA CPU-sampling methodologies from
// the related work (two-phase stratified sampling with Neyman allocation,
// and ranked-set sampling with repeated subsampling). Adding a methodology
// is a one-package change: implement Sampler, call Register from init, and
// blank-import the package — the API service, CLIs, experiments tables and
// load harness pick the new method up by name.
package sampler

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/obs"
	"github.com/gpusampling/sieve/internal/pks"
)

// Profile is the input every strategy plans from: its Rows, or in stream
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

// Default knob values shared by the bundled strategies.
const (
	// DefaultSeed drives every seeded draw (pilot subsampling, ranked-set
	// draws) when Options.Seed is zero.
	DefaultSeed = 1
	// DefaultPilotFraction is the share of each base stratum the two-phase
	// pilot measures.
	DefaultPilotFraction = 0.2
	// DefaultSetSize is the ranked-set draw size m.
	DefaultSetSize = 5
	// DefaultResamples is the repeated-subsampling count R.
	DefaultResamples = 16
)

// Options configures a strategy run. Core carries the knobs shared with the
// default sampler (θ, selection policy, splitter, parallelism); the rest are
// methodology-specific and ignored by strategies that don't use them.
type Options struct {
	// Core holds the stratification options.
	Core core.Options
	// Seed drives every randomized draw a strategy makes (two-phase pilot
	// subsampling, ranked-set draws, resampling). Same seed ⇒ byte-identical
	// plan. DefaultSeed if zero.
	Seed int64
	// PilotFraction is the share of each base stratum the two-phase pilot
	// subsample measures (DefaultPilotFraction if zero; must be in (0, 1]).
	PilotFraction float64
	// Budget is the two-phase second-stage representative budget distributed
	// by Neyman allocation. Zero lets the strategy pick its default (twice
	// the base stratum count); negative is an error.
	Budget int
	// SetSize is the ranked-set draw size m (DefaultSetSize if zero).
	SetSize int
	// Resamples is the repeated-subsampling count R behind rss error
	// intervals (DefaultResamples if zero; minimum 2).
	Resamples int
	// PKS carries the PKS baseline's own options, forwarded verbatim to
	// pks.SelectContext — a zero value keeps pks's historical defaults
	// (including its zero seed), so registry-built PKS plans match the legacy
	// call paths exactly.
	PKS pks.Options
	// Stream makes the sieve method plan in one bounded-memory pass
	// (core.StratifyStreamContext) keeping ReservoirSize rows per kernel,
	// with Seed seeding the reservoirs; no other method streams. The pass
	// is sequential and ignores Core.Parallelism, so a stream plan has the
	// same bytes at any worker count.
	Stream        bool
	ReservoirSize int
}

// WithDefaults validates the options and fills defaults. Strategies call it
// at the top of Plan, so callers may pass a zero Options.
func (o Options) WithDefaults() (Options, error) {
	if o.Core.Theta == 0 && !o.Core.ThetaSet {
		o.Core.Theta = core.DefaultTheta
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.PilotFraction == 0 {
		o.PilotFraction = DefaultPilotFraction
	}
	if o.PilotFraction < 0 || o.PilotFraction > 1 {
		return o, fmt.Errorf("sampler: pilot fraction %g outside (0, 1]", o.PilotFraction)
	}
	if o.Budget < 0 {
		return o, fmt.Errorf("sampler: negative budget %d", o.Budget)
	}
	if o.SetSize == 0 {
		o.SetSize = DefaultSetSize
	}
	if o.SetSize < 1 {
		return o, fmt.Errorf("sampler: set size %d < 1", o.SetSize)
	}
	if o.Resamples == 0 {
		o.Resamples = DefaultResamples
	}
	if o.Resamples < 2 {
		return o, fmt.Errorf("sampler: resamples %d < 2 (an interval needs at least two resamples)", o.Resamples)
	}
	return o, nil
}

// CheckStream rejects stream mode for every method but sieve.
func CheckStream(method string, stream bool) error {
	if method = Canonical(method); stream && method != core.MethodSieve {
		return fmt.Errorf("method %q does not support stream mode (only the default sieve sampler streams)", method)
	}
	return nil
}

// Sampler is one sampling methodology: it turns a profile into a complete,
// predictable sampling plan. Implementations must be deterministic — the
// same profile, options and seed produce a byte-identical plan.
type Sampler interface {
	// Name returns the registry name clients select the method by.
	Name() string
	// Plan builds the sampling plan.
	Plan(ctx context.Context, p *Profile, opts Options) (*core.Result, error)
}

// Factory constructs a strategy instance.
type Factory func() Sampler

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a strategy under its name. It is called from package init
// functions; registering an empty or duplicate name is a programming error
// and panics.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("sampler: Register called with empty name or nil factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sampler: duplicate registration of method %q", name))
	}
	registry[name] = f
}

// Canonical maps the empty method name to the default method ("sieve") and
// returns every other name unchanged.
func Canonical(name string) string {
	if name == "" {
		return core.MethodSieve
	}
	return name
}

// New returns a fresh instance of the named strategy ("" selects the
// default). Unknown names report the registered alternatives.
func New(name string) (Sampler, error) {
	name = Canonical(name)
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sampler: unknown method %q (registered: %v)", name, Names())
	}
	return f(), nil
}

// Names returns every registered method name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run resolves the named strategy and builds its plan under a sampler.plan
// observability span (method, rows and strata attributes). It is the entry
// point the root API, the service, the CLIs and the experiments harness
// share. Strategy errors are returned as the strategy reported them: they
// already name their layer, so the default method fails with exactly the
// errors core reports.
func Run(ctx context.Context, method string, p *Profile, opts Options) (*core.Result, error) {
	s, err := New(method)
	if err != nil {
		return nil, err
	}
	if err := CheckStream(method, opts.Stream); err != nil {
		return nil, err
	}
	if p.Source != nil && (p.Rows != nil || !opts.Stream) {
		return nil, errors.New("sampler: a profile with a Source needs stream mode and no Rows")
	}
	ctx, sp := obs.StartSpan(ctx, "sampler.plan")
	defer sp.End()
	if sp.Active() {
		sp.SetAttr("method", s.Name())
		sp.SetAttr("rows", len(p.Rows))
	}
	res, err := s.Plan(ctx, p, opts)
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
