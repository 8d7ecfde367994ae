// Package core implements Sieve, the paper's contribution: a stratified
// sampling methodology for GPU-compute workloads (Section III).
//
// Sieve consumes a minimal per-invocation profile — kernel name, invocation
// ID, dynamic instruction count, CTA size — and stratifies the invocations
// per kernel by instruction-count variability:
//
//   - Tier-1: zero variation across invocations → one stratum per kernel.
//   - Tier-2: coefficient of variation below the threshold θ → one stratum.
//   - Tier-3: CoV ≥ θ → the kernel's invocations are split with 1-D kernel
//     density estimation into strata whose CoV is below θ.
//
// One representative invocation is selected per stratum (first-chronological
// for Tier-1; first-chronological with the dominant CTA size for Tier-2/3)
// and weighted by the stratum's share of total instruction count. Overall
// performance is predicted as the weighted harmonic mean of per-
// representative IPC.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/gpusampling/sieve/internal/kde"
	"github.com/gpusampling/sieve/internal/obs"
	"github.com/gpusampling/sieve/internal/stats"
)

// DefaultTheta is the paper's recommended CoV threshold (Section III-B:
// "a threshold of θ = 0.4 strikes a good balance between accuracy and
// speed").
const DefaultTheta = 0.4

// Tier classifies a kernel's instruction-count variability (Section III-B).
type Tier int

const (
	// Tier1 kernels execute exactly the same instruction count every
	// invocation.
	Tier1 Tier = iota + 1
	// Tier2 kernels vary, with CoV below the threshold θ.
	Tier2
	// Tier3 kernels vary with CoV at or above θ and are split with KDE.
	Tier3
)

// String returns "Tier-1", "Tier-2" or "Tier-3".
func (t Tier) String() string {
	switch t {
	case Tier1:
		return "Tier-1"
	case Tier2:
		return "Tier-2"
	case Tier3:
		return "Tier-3"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// SelectionPolicy picks the representative invocation within a stratum.
type SelectionPolicy int

const (
	// SelectDominantCTAFirst picks the first-chronological invocation with
	// the stratum's most common CTA size — the paper's default for Tier-2/3
	// ("the selected kernel invocation occupies the available hardware
	// resources in a representative way for the rest of stratum").
	SelectDominantCTAFirst SelectionPolicy = iota
	// SelectFirstChronological picks the earliest invocation outright.
	SelectFirstChronological
	// SelectMaxCTA picks the first-chronological invocation with the
	// largest CTA size — evaluated by the paper and found less accurate.
	SelectMaxCTA
)

// String names the policy.
func (p SelectionPolicy) String() string {
	switch p {
	case SelectDominantCTAFirst:
		return "dominant-cta-first"
	case SelectFirstChronological:
		return "first-chronological"
	case SelectMaxCTA:
		return "max-cta"
	default:
		return fmt.Sprintf("SelectionPolicy(%d)", int(p))
	}
}

// Splitter chooses the Tier-3 sub-stratification algorithm.
type Splitter int

const (
	// SplitKDE cuts at kernel-density-estimate valleys, then bisects — the
	// paper's method.
	SplitKDE Splitter = iota
	// SplitEqualWidth bins instruction counts into equal-width histogram
	// bins, then bisects — the ablation baseline.
	SplitEqualWidth
	// SplitGMM fits a Gaussian mixture with EM and cuts at hard-assignment
	// boundaries — the model-based ablation alternative.
	SplitGMM
)

// String names the splitter.
func (s Splitter) String() string {
	switch s {
	case SplitKDE:
		return "kde"
	case SplitEqualWidth:
		return "equal-width"
	case SplitGMM:
		return "gmm"
	default:
		return fmt.Sprintf("Splitter(%d)", int(s))
	}
}

// InvocationProfile is the per-invocation information Sieve needs — exactly
// what the instruction-count profiler collects (Section III-A), plus the CTA
// size used by representative selection.
type InvocationProfile struct {
	// Kernel is the kernel name.
	Kernel string
	// Index is the global chronological invocation index.
	Index int
	// InstructionCount is the dynamically executed instruction count.
	InstructionCount float64
	// CTASize is the thread-block size.
	CTASize int
}

// Options configures stratification.
type Options struct {
	// Theta is the CoV threshold θ separating Tier-2 from Tier-3;
	// DefaultTheta if zero (unless ThetaSet is true). θ = 0 itself is
	// degenerate — no multi-valued stratum can reach CoV < 0 — and is
	// rejected when requested explicitly via ThetaSet.
	Theta float64
	// ThetaSet marks Theta as explicitly chosen: Theta is used verbatim and
	// Theta == 0 becomes a loud error instead of silently running at
	// DefaultTheta. Sweeps that iterate θ values should set it so a stray
	// zero in the sweep fails instead of quietly reporting DefaultTheta
	// results.
	ThetaSet bool
	// Selection is the representative-selection policy.
	Selection SelectionPolicy
	// Tier3Splitter picks the Tier-3 splitting algorithm.
	Tier3Splitter Splitter
	// Parallelism bounds the workers stratifying kernels concurrently:
	// 0 selects GOMAXPROCS, 1 runs sequentially. Profiles under 2048 rows
	// run sequentially whatever it says. Kernels are independent and
	// reassembled in deterministic order, so the result is byte-identical at
	// any parallelism.
	Parallelism int
}

// MethodSieve names the default methodology: the paper's stratified sampler
// implemented by this package. Plans it produces leave Result.Method empty so
// legacy plan documents and cache keys stay byte-stable.
const MethodSieve = "sieve"

// minParallelRows is the profile-row threshold below which the per-kernel
// worker pool is skipped: small profiles finish faster without goroutine
// and scheduling overhead. BenchmarkStratify on the default fixture (~25k
// rows) shows single-digit-percent pool gains at best, and sub-thousand-row
// profiles stratify in well under the cost of spinning up workers, so the
// crossover sits comfortably above typical small inputs.
const minParallelRows = 2048

// withDefaults returns the options with zero values replaced by defaults.
func (o Options) withDefaults() (Options, error) {
	if o.Theta == 0 {
		if o.ThetaSet {
			return o, fmt.Errorf("core: %w: theta 0 is degenerate (no multi-invocation stratum can reach CoV < 0); use a positive threshold", ErrInvalidTheta)
		}
		o.Theta = DefaultTheta
	}
	if o.Theta < 0 {
		return o, fmt.Errorf("core: %w: negative theta %g", ErrInvalidTheta, o.Theta)
	}
	switch o.Selection {
	case SelectDominantCTAFirst, SelectFirstChronological, SelectMaxCTA:
	default:
		return o, fmt.Errorf("core: unknown selection policy %d", o.Selection)
	}
	switch o.Tier3Splitter {
	case SplitKDE, SplitEqualWidth, SplitGMM:
	default:
		return o, fmt.Errorf("core: unknown splitter %d", o.Tier3Splitter)
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 0 {
		return o, fmt.Errorf("core: negative parallelism %d", o.Parallelism)
	}
	return o, nil
}

// Stratum is one group of same-kernel, similar-instruction-count invocations
// with its selected representative and weight.
type Stratum struct {
	// Kernel is the kernel every member invocation belongs to.
	Kernel string
	// Tier is the owning kernel's tier.
	Tier Tier
	// Invocations holds member invocation indices in chronological order.
	Invocations []int
	// InstructionSum is the total instruction count across members.
	InstructionSum float64
	// Representative is the selected invocation index.
	Representative int
	// Weight is InstructionSum divided by the workload's total instruction
	// count; weights across strata sum to one.
	Weight float64
}

// Result is a complete stratification: the sampling plan Sieve emits.
type Result struct {
	// Strata holds every stratum, ordered by kernel name and ascending
	// instruction count.
	Strata []Stratum
	// TotalInstructions is the workload's total instruction count.
	TotalInstructions float64
	// TierInvocations counts invocations per tier (index Tier-1).
	TierInvocations [3]int
	// Theta is the threshold used.
	Theta float64
	// Sampled reports that at least one kernel exceeded its streaming
	// reservoir, so stratum membership lists (and anything derived from
	// them, e.g. Speedup) cover a bounded sample rather than every
	// invocation. Plans built by StratifyContext, and streaming plans where every
	// kernel fit its reservoir, are exact and leave this false.
	Sampled bool
	// Method names the methodology that produced the plan. Empty means the
	// default Sieve stratified sampler — kept empty (rather than "sieve") so
	// plans from core directly and plans routed through sampler.Run's
	// default method stay byte-identical.
	Method string
	// Interval, when non-nil, carries a methodology-supplied confidence
	// interval on the plan's relative estimation error (e.g. ranked-set
	// resampling or two-phase pilot-variance analysis). The default sampler
	// leaves it nil.
	Interval *ErrorInterval
	// CountWeighted marks plans whose estimator extrapolates by invocation
	// count — predicted cycles = Σ over strata of (member count ×
	// representative cycles), the PKS estimator — instead of Sieve's
	// instruction-share weighted harmonic-mean IPC. Set by methodologies
	// that cluster across kernels, where instruction-share weighting is not
	// the native semantics.
	CountWeighted bool
	// byIndex retains the input rows needed for prediction (keyed by
	// global invocation Index). Exhaustive for materialized plans; retained
	// rows plus representatives for sampled streaming plans.
	byIndex map[int]*InvocationProfile
	// posByIndex maps a global invocation Index to the row's chronological
	// position in the ingested profile — the index golden-cycle arrays are
	// addressed by. Profiles with sparse or offset invocation indices make
	// the two differ.
	posByIndex map[int]int
}

// StratifyContext groups the profiled invocations into strata per Section
// III-B and selects a weighted representative per stratum per Section III-C.
// The per-kernel worker pool checks ctx between kernels, so a cancelled or
// timed-out context stops the stratification promptly — partially processed
// kernels are discarded and the workers return to the runtime — and the call
// reports ctx.Err().
func StratifyContext(ctx context.Context, profile []InvocationProfile, opts Options) (*Result, error) {
	return stratify(ctx, profile, opts, minParallelRows)
}

// stratify is StratifyContext with the profile size below which the
// per-kernel loop runs inline as a parameter, so tests can force the worker
// pool (minRows 1) without a setting shared between them.
func stratify(ctx context.Context, profile []InvocationProfile, opts Options, minRows int) (*Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(profile) == 0 {
		return nil, fmt.Errorf("core: %w", ErrEmptyProfile)
	}
	res, err := newResult(profile, opts.Theta)
	if err != nil {
		return nil, err
	}

	// Group rows per kernel, preserving chronological order.
	kernelRows := make(map[string][]*InvocationProfile)
	var kernelOrder []string
	for i := range profile {
		p := &profile[i]
		if _, seen := kernelRows[p.Kernel]; !seen {
			kernelOrder = append(kernelOrder, p.Kernel)
		}
		kernelRows[p.Kernel] = append(kernelRows[p.Kernel], p)
	}
	sort.Strings(kernelOrder)

	// Observability: with a collector in ctx this records a core.stratify span
	// (with one core.kernel child per kernel, created by stratifyKernel); with
	// none, StartSpan returns a nil span and ctx unchanged, so the compute path
	// below is untouched and the plan stays byte-identical.
	ctx, sp := obs.StartSpan(ctx, "core.stratify")
	defer sp.End()
	if sp.Active() {
		sp.SetAttr("theta", opts.Theta)
		sp.SetAttr("parallelism", opts.Parallelism)
		sp.SetAttr("kernels", len(kernelOrder))
		sp.SetAttr("splitter", opts.Tier3Splitter.String())
		sp.Add("rows", int64(len(profile)))
	}

	// Stratify kernels on a bounded worker pool: kernels are independent, so
	// each worker owns one kernel's rows end to end and the per-kernel
	// outputs are reassembled below in sorted kernel order — the result is
	// byte-identical to the sequential walk regardless of worker count.
	type kernelOutput struct {
		strata []Stratum
		tier   Tier
		rows   int
		err    error
	}
	outputs := make([]kernelOutput, len(kernelOrder))
	process := func(i int) {
		kernel := kernelOrder[i]
		rows := kernelRows[kernel]
		sort.Slice(rows, func(a, b int) bool { return rows[a].Index < rows[b].Index })
		strata, tier, err := stratifyKernel(ctx, kernel, rows, opts)
		if err != nil {
			err = fmt.Errorf("core: kernel %s: %w", kernel, err)
		}
		outputs[i] = kernelOutput{strata: strata, tier: tier, rows: len(rows), err: err}
	}
	// Work-size gate: profiles below the threshold run inline — the pool's
	// scheduling decision, never its result, depends on input size.
	workers := min(opts.Parallelism, len(kernelOrder))
	if len(profile) < minRows {
		workers = 1
	}
	if sp.Active() {
		sp.SetAttr("workers", workers)
	}
	if workers <= 1 {
		for i := range kernelOrder {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			process(i)
		}
	} else {
		// Workers pull kernel indices from a shared counter and check ctx
		// before each pull, so cancellation is observed between work items:
		// in-progress kernels finish, queued ones are never started, and every
		// worker slot is released by the time the call returns.
		var wg sync.WaitGroup
		var next atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= len(kernelOrder) {
						return
					}
					process(i)
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for _, out := range outputs {
		if out.err != nil {
			return nil, out.err
		}
		res.TierInvocations[out.tier-1] += out.rows
		res.Strata = append(res.Strata, out.strata...)
	}
	if sp.Active() {
		sp.SetAttr("strata", len(res.Strata))
		sp.SetAttr("tier1_invocations", res.TierInvocations[0])
		sp.SetAttr("tier2_invocations", res.TierInvocations[1])
		sp.SetAttr("tier3_invocations", res.TierInvocations[2])
	}
	res.setWeights()
	return res, nil
}

// newResult validates the profile rows and returns an empty Result indexed
// by them: byIndex and posByIndex cover every row.
func newResult(profile []InvocationProfile, theta float64) (*Result, error) {
	res := &Result{
		Theta:      theta,
		byIndex:    make(map[int]*InvocationProfile, len(profile)),
		posByIndex: make(map[int]int, len(profile)),
	}
	for i := range profile {
		p := &profile[i]
		if err := checkRow(p, i); err != nil {
			return nil, err
		}
		if _, dup := res.byIndex[p.Index]; dup {
			return nil, fmt.Errorf("core: duplicate invocation index %d", p.Index)
		}
		res.byIndex[p.Index] = p
		res.posByIndex[p.Index] = i
	}
	return res, nil
}

// checkRow validates the row at position pos of a profile: it needs a kernel
// name, a positive instruction count and a positive CTA size.
func checkRow(p *InvocationProfile, pos int) error {
	if p.Kernel == "" {
		return fmt.Errorf("core: profile row %d has no kernel name", pos)
	}
	if p.InstructionCount <= 0 {
		return fmt.Errorf("core: profile row %d (kernel %s) has non-positive instruction count", pos, p.Kernel)
	}
	if p.CTASize <= 0 {
		return fmt.Errorf("core: profile row %d (kernel %s) has non-positive CTA size", pos, p.Kernel)
	}
	return nil
}

// setWeights totals the strata's instructions and sets each stratum's weight
// to its instruction share of that total (Section III-C).
func (r *Result) setWeights() {
	for i := range r.Strata {
		r.TotalInstructions += r.Strata[i].InstructionSum
	}
	for i := range r.Strata {
		r.Strata[i].Weight = r.Strata[i].InstructionSum / r.TotalInstructions
	}
}

// stratifyKernel classifies one kernel's invocations and returns its strata.
// When a collector rides ctx it records a core.kernel span carrying the tier
// decision, the stratum count and the per-stratum CoV.
func stratifyKernel(ctx context.Context, kernel string, rows []*InvocationProfile, opts Options) ([]Stratum, Tier, error) {
	ctx, sp := obs.StartSpan(ctx, "core.kernel")
	defer sp.End()

	counts := make([]float64, len(rows))
	allEqual := true
	for i, r := range rows {
		counts[i] = r.InstructionCount
		if counts[i] != counts[0] {
			allEqual = false
		}
	}

	var tier Tier
	switch {
	case allEqual:
		tier = Tier1
	case stats.CoV(counts) < opts.Theta:
		tier = Tier2
	default:
		tier = Tier3
	}
	if sp.Active() {
		sp.SetAttr("kernel", kernel)
		sp.SetAttr("rows", len(rows))
		sp.SetAttr("tier", tier.String())
		sp.SetAttr("cov", stats.CoV(counts))
	}

	if tier != Tier3 {
		s, err := buildStratum(kernel, tier, rows, opts)
		if err != nil {
			return nil, tier, err
		}
		if sp.Active() {
			sp.SetAttr("strata", 1)
			sp.SetAttr("strata_cov", []float64{stats.CoV(counts)})
		}
		return []Stratum{s}, tier, nil
	}

	strata, err := tier3Strata(ctx, sp, kernel, counts, rows, opts)
	return strata, tier, err
}

// tier3Strata splits a Tier-3 kernel's instruction counts (counts[i] is
// rows[i]'s) so each group's CoV < θ, then maps value groups back to rows.
// The splitters return ascending groups that partition the sorted sample, so
// sorting rows by (count, index) and carving by group lengths reproduces the
// assignment exactly. sp is the kernel's core.kernel span.
func tier3Strata(ctx context.Context, sp *obs.Span, kernel string, counts []float64, rows []*InvocationProfile, opts Options) ([]Stratum, error) {
	groups, err := splitTier3(ctx, counts, opts)
	if err != nil {
		return nil, err
	}
	if sp.Active() {
		sp.SetAttr("strata", len(groups))
		covs := make([]float64, len(groups))
		for i, g := range groups {
			covs[i] = stats.CoV(g)
		}
		sp.SetAttr("strata_cov", covs)
	}
	sortedRows := append([]*InvocationProfile(nil), rows...)
	sort.SliceStable(sortedRows, func(a, b int) bool {
		if sortedRows[a].InstructionCount != sortedRows[b].InstructionCount {
			return sortedRows[a].InstructionCount < sortedRows[b].InstructionCount
		}
		return sortedRows[a].Index < sortedRows[b].Index
	})
	var strata []Stratum
	at := 0
	for _, g := range groups {
		members := sortedRows[at : at+len(g)]
		at += len(g)
		s, err := buildStratum(kernel, Tier3, members, opts)
		if err != nil {
			return nil, err
		}
		strata = append(strata, s)
	}
	if at != len(sortedRows) {
		return nil, fmt.Errorf("splitter dropped invocations: %d of %d assigned", at, len(sortedRows))
	}
	return strata, nil
}

// splitTier3 partitions instruction counts into ascending groups whose CoV
// is below θ, with the configured splitting algorithm.
func splitTier3(ctx context.Context, counts []float64, opts Options) ([][]float64, error) {
	switch opts.Tier3Splitter {
	case SplitKDE:
		return kde.SplitUnderCoVContext(ctx, counts, opts.Theta)
	case SplitEqualWidth:
		return equalWidthSplit(ctx, counts, opts.Theta)
	case SplitGMM:
		return kde.SplitUnderCoVGMMContext(ctx, counts, opts.Theta)
	default:
		return nil, fmt.Errorf("unknown splitter %d", opts.Tier3Splitter)
	}
}

// buildStratum assembles a stratum from member rows and selects its
// representative.
func buildStratum(kernel string, tier Tier, members []*InvocationProfile, opts Options) (Stratum, error) {
	s := Stratum{Kernel: kernel, Tier: tier}
	s.Invocations = make([]int, len(members))
	order := append([]*InvocationProfile(nil), members...)
	sort.Slice(order, func(a, b int) bool { return order[a].Index < order[b].Index })
	for i, r := range order {
		s.Invocations[i] = r.Index
		s.InstructionSum += r.InstructionCount
	}
	rep, err := selectRepresentative(order, tier, opts.Selection)
	if err != nil {
		return s, err
	}
	s.Representative = rep
	return s, nil
}

// selectRepresentative implements Section III-C on chronologically ordered
// members.
func selectRepresentative(ordered []*InvocationProfile, tier Tier, policy SelectionPolicy) (int, error) {
	if len(ordered) == 0 {
		return 0, fmt.Errorf("empty stratum")
	}
	if tier == Tier1 || policy == SelectFirstChronological {
		// Tier-1: all invocations are interchangeable; take the first.
		return ordered[0].Index, nil
	}
	switch policy {
	case SelectDominantCTAFirst:
		// Most common CTA size; ties break toward the size seen first.
		freq := make(map[int]int)
		for _, r := range ordered {
			freq[r.CTASize]++
		}
		dominant, best := 0, -1
		for _, r := range ordered {
			if f := freq[r.CTASize]; f > best {
				dominant, best = r.CTASize, f
			}
		}
		for _, r := range ordered {
			if r.CTASize == dominant {
				return r.Index, nil
			}
		}
		return ordered[0].Index, nil
	case SelectMaxCTA:
		max := 0
		for _, r := range ordered {
			if r.CTASize > max {
				max = r.CTASize
			}
		}
		for _, r := range ordered {
			if r.CTASize == max {
				return r.Index, nil
			}
		}
		return ordered[0].Index, nil
	default:
		return 0, fmt.Errorf("unknown selection policy %d", policy)
	}
}

// equalWidthSplit is the ablation Tier-3 splitter: Freedman–Diaconis
// equal-width bins followed by the same CoV-constrained bisection the KDE
// path uses for stubborn groups.
func equalWidthSplit(ctx context.Context, counts []float64, theta float64) ([][]float64, error) {
	bins := stats.FreedmanDiaconisBins(counts, 64)
	h, err := stats.NewHistogram(counts, bins)
	if err != nil {
		return nil, err
	}
	sorted := append([]float64(nil), counts...)
	sort.Float64s(sorted)
	var groups [][]float64
	var current []float64
	currentBin := -1
	for _, v := range sorted {
		b := h.Bin(v)
		if b != currentBin && len(current) > 0 {
			groups = append(groups, current)
			current = nil
		}
		currentBin = b
		current = append(current, v)
	}
	if len(current) > 0 {
		groups = append(groups, current)
	}
	// Bisect any group still over threshold by delegating to the KDE
	// splitter, which reduces to pure bisection on already-tight samples.
	var out [][]float64
	for _, g := range groups {
		if len(g) > 1 && stats.CoV(g) >= theta {
			sub, err := kde.SplitUnderCoVContext(ctx, g, theta)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
			continue
		}
		out = append(out, g)
	}
	return out, nil
}
