package sampler

import (
	"context"
	"fmt"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/pks"
)

// MethodPKS names the Principal Kernel Selection baseline strategy.
const MethodPKS = "pks"

// pksSampler adapts the PKS baseline (12-characteristic PCA + k-means sweep
// calibrated against golden cycles) to the Sampler interface. The selection
// is exactly pks.SelectContext's — same clusters, same representatives,
// pinned by tests — re-expressed as a core plan: one stratum per cluster
// (synthetic "pks-cluster-NNN" labels, since clusters span kernels) with the
// CountWeighted flag set so Predict reproduces the PKS estimator (Σ cluster
// size × representative cycles) rather than Sieve's instruction-share
// harmonic mean.
type pksSampler struct{}

func (pksSampler) Name() string { return MethodPKS }

func (pksSampler) Plan(ctx context.Context, p *Profile, opts Options) (*core.Result, error) {
	opts, err := opts.WithDefaults()
	if err != nil {
		return nil, err
	}
	if len(p.Features) != len(p.Rows) {
		return nil, fmt.Errorf("pks needs one feature vector per profile row (%d features for %d rows); feature vectors come from the full profiler, so run pks in workload mode", len(p.Features), len(p.Rows))
	}
	if len(p.GoldenCycles) != len(p.Rows) {
		return nil, fmt.Errorf("pks needs one golden cycle count per profile row (%d for %d rows); PKS calibrates its k sweep against a measured reference", len(p.GoldenCycles), len(p.Rows))
	}
	sel, err := pks.SelectContext(ctx, p.Features, p.GoldenCycles, opts.PKS)
	if err != nil {
		return nil, err
	}
	specs := make([]core.StratumSpec, len(sel.Clusters))
	for ci := range sel.Clusters {
		c := &sel.Clusters[ci]
		members := make([]int, len(c.Invocations))
		for j, pos := range c.Invocations {
			if pos < 0 || pos >= len(p.Rows) {
				return nil, fmt.Errorf("pks cluster %d references row %d outside the %d-row profile", ci, pos, len(p.Rows))
			}
			members[j] = p.Rows[pos].Index
		}
		tier := core.Tier2
		if len(members) == 1 {
			tier = core.Tier1
		}
		specs[ci] = core.StratumSpec{
			Kernel:         fmt.Sprintf("pks-cluster-%03d", ci),
			Tier:           tier,
			Members:        members,
			Representative: p.Rows[c.Representative].Index,
		}
	}
	res, err := core.Assemble(p.Rows, specs, opts.Core.Theta)
	if err != nil {
		return nil, err
	}
	res.Method = MethodPKS
	res.CountWeighted = true
	return res, nil
}

func init() {
	Register(MethodPKS, func() Sampler { return pksSampler{} })
}
