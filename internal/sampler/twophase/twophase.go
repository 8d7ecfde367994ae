// Package twophase implements two-phase stratified sampling in the style of
// the NVIDIA CPU-sampling work (*CPU Simulation Using Two-Phase Stratified
// Sampling*): a cheap pilot subsample measures each base stratum's observed
// dispersion, and the second phase distributes a representative budget across
// strata Neyman-style (allocation ∝ stratum size × pilot standard
// deviation), splitting high-variance strata into finer sub-strata that each
// get their own representative. Homogeneous strata keep a single
// representative; the extra simulation budget concentrates exactly where the
// instruction-count dispersion — Sieve's proxy for cycle dispersion — says
// prediction risk lives.
//
// Every draw is seeded from Options.Seed, so the same profile, options and
// seed produce a byte-identical plan at any parallelism.
package twophase

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/sampler"
	"github.com/gpusampling/sieve/internal/stats"
)

// Method is the registry name.
const Method = "twophase"

type twoPhase struct{}

func (twoPhase) Name() string { return Method }

// pilotSeed derives the per-stratum pilot RNG seed deterministically from
// the run seed and the stratum's position in the (deterministically ordered)
// base plan.
func pilotSeed(seed int64, stratum int) int64 {
	return seed*1_000_003 + int64(stratum)*7919
}

// Plan stratifies with the base Sieve pipeline, pilots each stratum, and
// re-cuts the plan under a Neyman allocation of the representative budget.
func (twoPhase) Plan(ctx context.Context, p *sampler.Profile, opts sampler.Options) (*core.Result, error) {
	opts, err := opts.WithDefaults()
	if err != nil {
		return nil, err
	}
	base, err := p.Stratify(ctx, opts.Core) // shared: read, never written
	if err != nil {
		return nil, err
	}
	rowByIndex := make(map[int]core.InvocationProfile, len(p.Rows))
	for _, r := range p.Rows {
		rowByIndex[r.Index] = r
	}

	// Phase one: pilot each base stratum. The pilot draws a seeded
	// without-replacement subsample of the stratum's instruction counts and
	// records its standard deviation — the dispersion signal Neyman
	// allocation sizes the second phase by.
	scores := make([]float64, len(base.Strata))
	// One generator serves every pilot: reseeding it with a stratum's
	// pilotSeed gives exactly the stream a fresh rand.NewSource would, at
	// O(1) per reseed (stats.DrawSource).
	rng := rand.New(&stats.DrawSource{})
	for h := range base.Strata {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := &base.Strata[h]
		n := len(s.Invocations)
		if n < 2 {
			continue // a singleton has no dispersion to measure
		}
		pilot := int(math.Ceil(opts.PilotFraction * float64(n)))
		if pilot < 2 {
			pilot = 2
		}
		if pilot > n {
			pilot = n
		}
		// Partial Fisher–Yates over the stratum's (deterministically
		// ordered) member list: the first `pilot` swaps pick the subsample.
		rng.Seed(pilotSeed(opts.Seed, h))
		members := append([]int(nil), s.Invocations...)
		var acc stats.Accumulator
		for i := 0; i < pilot; i++ {
			j := i + rng.Intn(n-i)
			members[i], members[j] = members[j], members[i]
			acc.Add(rowByIndex[members[i]].InstructionCount)
		}
		scores[h] = float64(n) * acc.StdDev()
	}

	// Phase two: distribute the representative budget by highest-averages
	// (D'Hondt) Neyman allocation — each extra representative goes to the
	// stratum with the largest remaining score per representative, capped by
	// stratum size. Zero-dispersion strata never attract extra budget.
	budget := opts.Budget
	if budget == 0 {
		budget = 2 * len(base.Strata)
	}
	if budget < len(base.Strata) {
		budget = len(base.Strata)
	}
	if budget > len(p.Rows) {
		budget = len(p.Rows)
	}
	alloc := make([]int, len(base.Strata))
	for h := range alloc {
		alloc[h] = 1
	}
	for extra := budget - len(base.Strata); extra > 0; extra-- {
		best, bestScore := -1, 0.0
		for h := range base.Strata {
			if alloc[h] >= len(base.Strata[h].Invocations) {
				continue
			}
			if avg := scores[h] / float64(alloc[h]); avg > bestScore {
				best, bestScore = h, avg
			}
		}
		if best < 0 {
			break // every stratum with dispersion is saturated
		}
		alloc[best]++
	}

	// Re-cut each base stratum into alloc[h] rank-contiguous sub-strata
	// (ordered by instruction count, ties by index — the same ordering the
	// Tier-3 splitters use) and select a representative per sub-stratum with
	// the configured policy.
	var specs []core.StratumSpec
	for h := range base.Strata {
		s := &base.Strata[h]
		ordered := make([]core.InvocationProfile, len(s.Invocations))
		for i, idx := range s.Invocations {
			ordered[i] = rowByIndex[idx]
		}
		sort.SliceStable(ordered, func(a, b int) bool {
			if ordered[a].InstructionCount != ordered[b].InstructionCount {
				return ordered[a].InstructionCount < ordered[b].InstructionCount
			}
			return ordered[a].Index < ordered[b].Index
		})
		parts := alloc[h]
		size, rem := len(ordered)/parts, len(ordered)%parts
		at := 0
		for g := 0; g < parts; g++ {
			n := size
			if g < rem {
				n++
			}
			chunk := ordered[at : at+n]
			at += n
			rep, err := core.ChooseRepresentative(chunk, s.Tier, opts.Core.Selection)
			if err != nil {
				return nil, fmt.Errorf("stratum %s part %d: %w", s.Kernel, g, err)
			}
			members := make([]int, len(chunk))
			for i, r := range chunk {
				members[i] = r.Index
			}
			specs = append(specs, core.StratumSpec{
				Kernel:         s.Kernel,
				Tier:           s.Tier,
				Members:        members,
				Representative: rep,
			})
		}
	}

	res, err := core.Assemble(p.Rows, specs, base.Theta)
	if err != nil {
		return nil, err
	}
	res.Method = Method
	// The interval is analytic: classical stratified-sampling variance of
	// the final (post-allocation) plan, centered on zero because the
	// estimator is unbiased in expectation. Resamples stays 0 to mark it
	// variance-derived rather than resampling-derived.
	bound, err := res.EstimateErrorBound()
	if err != nil {
		return nil, err
	}
	res.Interval = &core.ErrorInterval{
		Mean:   0,
		StdErr: bound.RelativeStdDev,
		Low:    -bound.TwoSigma,
		High:   bound.TwoSigma,
	}
	return res, nil
}

func init() {
	sampler.Register(Method, func() sampler.Sampler { return twoPhase{} })
}
