package sampler

import (
	"context"

	"github.com/gpusampling/sieve/internal/core"
)

// planSieve is the default method: the paper's stratified sampler,
// delegated wholesale to core.StratifyContext through Profile.Stratify, or in
// stream mode to core.StratifyStreamContext. Plans are byte-identical to
// calling core directly — Result.Method stays empty and no interval is
// attached — so the golden fixtures and cache keys of plain core plans hold.
func planSieve(ctx context.Context, p *Profile, opts Options) (*core.Result, error) {
	if opts.Stream { // a stream plan may be Sampled, so it skips the memo
		src := p.Source
		if src == nil {
			src = core.SliceSource(p.Rows)
		}
		// DefaultSeed equals core.DefaultSeed, the default reservoir seed.
		return core.StratifyStreamContext(ctx, src, core.StreamOptions{Options: opts.Core, ReservoirSize: opts.ReservoirSize, Seed: uint64(opts.Seed)})
	}
	// The plan is the profile's base stratification itself: on a memoized
	// profile, the result every caller shares. Returning it is safe only
	// because nothing downstream of a sampler writes to a plan.
	return p.Stratify(ctx, opts.Core)
}
