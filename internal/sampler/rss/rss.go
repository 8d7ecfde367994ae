// Package rss implements ranked-set sampling with repeated subsampling, in
// the style of the NVIDIA CPU-sampling work (*CPU Simulation with Ranked Set
// Sampling and Repeated Subsampling*). Within each base stratum the
// representative is chosen by a ranked-set draw — m seeded candidates are
// ranked by instruction count and the median rank is selected, which
// concentrates selection on centrally representative invocations without
// measuring the whole stratum — and the whole selection is then repeated R
// times under derived seeds. The spread of the R resampled estimates yields
// a confidence interval on the plan's relative estimation error, attached to
// the plan as core.ErrorInterval: an error bar instead of a single point
// estimate, with width shrinking as 1/√R.
//
// Every draw derives deterministically from Options.Seed, the stratum
// position and the resample number, so the same seed produces a
// byte-identical plan and interval.
package rss

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/sampler"
	"github.com/gpusampling/sieve/internal/stats"
)

// Method is the registry name.
const Method = "rss"

type rankedSet struct{}

func (rankedSet) Name() string { return Method }

// subSeed mixes the run seed with the stratum position and resample number
// (splitmix64-style finalizer) so every draw has an independent,
// reproducible stream. Resample 0 is the plan's own selection.
func subSeed(seed int64, stratum, resample int) int64 {
	z := uint64(seed) + uint64(stratum+1)*0x9E3779B97F4A7C15 + uint64(resample)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// rankedPick runs one ranked-set draw: up to m distinct seeded candidates
// from the stratum, ranked by (instruction count, index), median rank wins.
func rankedPick(rng *rand.Rand, members []int, rowByIndex map[int]core.InvocationProfile, m int) int {
	n := len(members)
	if m > n {
		m = n
	}
	pool := append([]int(nil), members...)
	cand := make([]core.InvocationProfile, m)
	for i := 0; i < m; i++ {
		j := i + rng.Intn(n-i)
		pool[i], pool[j] = pool[j], pool[i]
		cand[i] = rowByIndex[pool[i]]
	}
	sort.Slice(cand, func(a, b int) bool {
		if cand[a].InstructionCount != cand[b].InstructionCount {
			return cand[a].InstructionCount < cand[b].InstructionCount
		}
		return cand[a].Index < cand[b].Index
	})
	return cand[(m-1)/2].Index
}

// Plan stratifies with the base Sieve pipeline, replaces each stratum's
// representative with a ranked-set selection, and attaches the
// repeated-subsampling error interval.
func (rankedSet) Plan(ctx context.Context, p *sampler.Profile, opts sampler.Options) (*core.Result, error) {
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

	// One generator serves every draw: reseeding it with a draw's subSeed
	// gives exactly the stream a fresh rand.NewSource(subSeed) would, at
	// O(1) per reseed (stats.DrawSource).
	rng := rand.New(&stats.DrawSource{})
	specs := make([]core.StratumSpec, len(base.Strata))
	for h := range base.Strata {
		s := &base.Strata[h]
		rng.Seed(subSeed(opts.Seed, h, 0))
		specs[h] = core.StratumSpec{
			Kernel:         s.Kernel,
			Tier:           s.Tier,
			Members:        append([]int(nil), s.Invocations...),
			Representative: rankedPick(rng, s.Invocations, rowByIndex, opts.SetSize),
		}
	}
	res, err := core.Assemble(p.Rows, specs, base.Theta)
	if err != nil {
		return nil, err
	}
	res.Method = Method

	// Repeated subsampling: rerun the ranked-set selection R times under
	// derived seeds and estimate total instructions from each selection
	// (count-expansion: Σ stratum size × selected count). The signed
	// relative errors of the R estimates against the known total give the
	// interval — mean, standard error s/√R, and a ±2·stderr band.
	errs := make([]float64, opts.Resamples)
	for r := 1; r <= opts.Resamples; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var est float64
		for h := range base.Strata {
			s := &base.Strata[h]
			rng.Seed(subSeed(opts.Seed, h, r))
			rep := rankedPick(rng, s.Invocations, rowByIndex, opts.SetSize)
			est += float64(len(s.Invocations)) * rowByIndex[rep].InstructionCount
		}
		errs[r-1] = (est - base.TotalInstructions) / base.TotalInstructions
	}
	mean := stats.Mean(errs)
	stderr := stats.StdDev(errs) / math.Sqrt(float64(opts.Resamples))
	res.Interval = &core.ErrorInterval{
		Mean:      mean,
		StdErr:    stderr,
		Low:       mean - 2*stderr,
		High:      mean + 2*stderr,
		Resamples: opts.Resamples,
	}
	return res, nil
}

func init() {
	sampler.Register(Method, func() sampler.Sampler { return rankedSet{} })
}
