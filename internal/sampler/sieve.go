package sampler

import (
	"context"

	"github.com/gpusampling/sieve/internal/core"
)

// sieveSampler is the default strategy: the paper's stratified sampler,
// delegated wholesale to core.StratifyContext. Plans are byte-identical to
// calling core directly — Result.Method stays empty and no interval is
// attached — so pre-registry golden fixtures and cache keys are unaffected.
type sieveSampler struct{}

func (sieveSampler) Name() string { return core.MethodSieve }

func (sieveSampler) Plan(ctx context.Context, p *Profile, opts Options) (*core.Result, error) {
	opts, err := opts.WithDefaults()
	if err != nil {
		return nil, err
	}
	return core.StratifyContext(ctx, p.Rows, opts.Core)
}

func init() {
	Register(core.MethodSieve, func() Sampler { return sieveSampler{} })
}
