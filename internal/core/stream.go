package core

import (
	"context"
	"fmt"
	"io"

	"github.com/gpusampling/sieve/internal/obs"
	"github.com/gpusampling/sieve/internal/stream"
)

// StreamOptions configures bounded-memory streaming stratification. The
// embedded Options carry the usual θ/selection/splitter knobs; the extra
// fields bound the streaming pass itself. Parallelism is ignored: the
// ingestion pass and the per-kernel loop are sequential, so a stream plan has
// the same bytes at any worker count.
type StreamOptions struct {
	Options
	// ReservoirSize bounds the rows retained per kernel;
	// stream.DefaultReservoirSize if zero. Kernels whose invocation count
	// fits the reservoir are stratified exactly — byte-identical to
	// StratifyContext on the same rows; larger kernels fall back to sampled
	// Tier-3 splitting and partial membership lists (Result.Sampled).
	ReservoirSize int
	// Seed seeds the deterministic reservoir priority hash;
	// stream.DefaultSeed if zero. Reservoir membership is a pure function
	// of (Seed, invocation index).
	Seed uint64
}

// RowSource yields the next profile row, or io.EOF after the last one. Rows
// must arrive in strictly ascending global Index order (the natural order of
// a chronological profile log), which is how the single pass detects
// duplicate indices without retaining an index set.
type RowSource func() (InvocationProfile, error)

// SliceSource adapts in-memory rows into a RowSource that yields them in
// slice order.
func SliceSource(rows []InvocationProfile) RowSource {
	i := 0
	return func() (InvocationProfile, error) {
		if i >= len(rows) {
			return InvocationProfile{}, io.EOF
		}
		r := rows[i]
		i++
		return r, nil
	}
}

// StratifyStreamContext is the bounded-memory analogue of StratifyContext: a
// single pass over the source feeds per-kernel online accumulators (tier
// classification without retaining rows), exact streaming
// dominant-CTA/first-invocation tracking, and a deterministic seeded
// reservoir per kernel. Memory is O(kernels × ReservoirSize) regardless of
// how many invocations stream by.
//
//   - Every kernel fits its reservoir → the plan is byte-identical to
//     StratifyContext on the same rows, at any Parallelism.
//   - A kernel overflows → its tier comes from the online accumulators, its
//     representative and instruction totals remain exact (streaming
//     frequency/first tracking covers every invocation), but Tier-3 KDE
//     splitting runs on the reservoir sample, stratum membership lists are
//     partial, and the plan is marked Sampled.
//
// The ingestion pass checks ctx every 1024 rows and the per-kernel
// stratification loop checks it between kernels, so a cancelled or timed-out
// context stops the single pass mid-stream and reports ctx.Err().
func StratifyStreamContext(ctx context.Context, next RowSource, opts StreamOptions) (*Result, error) {
	o, err := opts.Options.withDefaults()
	if err != nil {
		return nil, err
	}
	// The stream.ingest span (from IngestContext) and the per-kernel
	// core.kernel spans nest under this one; without a collector StartSpan is
	// a no-op and the pass is untouched.
	ctx, sp := obs.StartSpan(ctx, "core.stratify_stream")
	defer sp.End()
	if sp.Active() {
		sp.SetAttr("theta", o.Theta)
		sp.SetAttr("splitter", o.Tier3Splitter.String())
	}
	digest, err := stream.IngestContext(ctx, func() (stream.Row, error) {
		p, err := next()
		if err != nil {
			return stream.Row{}, err
		}
		return stream.Row{
			Kernel:           p.Kernel,
			Index:            p.Index,
			InstructionCount: p.InstructionCount,
			CTASize:          p.CTASize,
		}, nil
	}, stream.Options{
		ReservoirSize: opts.ReservoirSize,
		Seed:          opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	if digest.Rows == 0 {
		return nil, fmt.Errorf("core: %w", ErrEmptyProfile)
	}

	res := &Result{
		Theta:      o.Theta,
		byIndex:    make(map[int]*InvocationProfile),
		posByIndex: make(map[int]int),
	}
	for _, kd := range digest.Kernels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var strata []Stratum
		var tier Tier
		if kd.Complete() {
			// Exact fallback: the reservoir holds every row, so run the
			// very same per-kernel stratifier StratifyContext uses.
			rows := res.registerRows(kd.Rows())
			strata, tier, err = stratifyKernel(ctx, kd.Name, rows, o)
		} else {
			res.Sampled = true
			strata, tier, err = stratifyKernelDigest(ctx, kd, o, res)
		}
		if err != nil {
			return nil, fmt.Errorf("core: kernel %s: %w", kd.Name, err)
		}
		res.TierInvocations[tier-1] += kd.N()
		res.Strata = append(res.Strata, strata...)
	}
	res.setWeights()
	if sp.Active() {
		sp.SetAttr("kernels", len(digest.Kernels))
		sp.SetAttr("strata", len(res.Strata))
		sp.SetAttr("sampled", res.Sampled)
		sp.Add("rows", int64(digest.Rows))
	}
	return res, nil
}

// registerRows copies retained stream rows into the result's lookup maps and
// returns them as stratifier input.
func (r *Result) registerRows(rows []stream.Row) []*InvocationProfile {
	profs := make([]InvocationProfile, len(rows))
	out := make([]*InvocationProfile, len(rows))
	for i, row := range rows {
		profs[i] = profileRow(row)
		r.byIndex[row.Index] = &profs[i]
		r.posByIndex[row.Index] = row.Pos
		out[i] = &profs[i]
	}
	return out
}

// registerRow copies one stream row (e.g. an off-reservoir representative)
// into the result's lookup maps.
func (r *Result) registerRow(row stream.Row) {
	if _, ok := r.byIndex[row.Index]; ok {
		return
	}
	p := profileRow(row)
	r.byIndex[row.Index] = &p
	r.posByIndex[row.Index] = row.Pos
}

// profileRow converts a stream row back into a profile row (dropping Pos).
func profileRow(row stream.Row) InvocationProfile {
	return InvocationProfile{
		Kernel:           row.Kernel,
		Index:            row.Index,
		InstructionCount: row.InstructionCount,
		CTASize:          row.CTASize,
	}
}

// stratifyKernelDigest builds strata for a kernel that overflowed its
// reservoir, from the digest's exact aggregates plus the bounded row sample.
// Its core.kernel span mirrors stratifyKernel's, with sampled=true and the
// retained-sample size alongside the exact invocation count.
func stratifyKernelDigest(ctx context.Context, kd *stream.KernelDigest, opts Options, res *Result) ([]Stratum, Tier, error) {
	acc := kd.Stats()
	var tier Tier
	switch {
	case acc.Min() == acc.Max():
		tier = Tier1
	case acc.CoV() < opts.Theta:
		tier = Tier2
	default:
		tier = Tier3
	}

	ctx, sp := obs.StartSpan(ctx, "core.kernel")
	defer sp.End()
	rows := res.registerRows(kd.Rows())
	if sp.Active() {
		sp.SetAttr("kernel", kd.Name)
		sp.SetAttr("rows", kd.N())
		sp.SetAttr("retained", len(rows))
		sp.SetAttr("tier", tier.String())
		sp.SetAttr("cov", acc.CoV())
		sp.SetAttr("sampled", true)
	}
	if tier != Tier3 {
		// One stratum covering the whole kernel. The instruction total and
		// the representative are exact — the accumulator and the streaming
		// CTA-frequency/first-row tracking saw every invocation — only the
		// membership list is limited to the retained sample.
		s := Stratum{Kernel: kd.Name, Tier: tier, InstructionSum: acc.Sum()}
		s.Invocations = make([]int, len(rows))
		for i, p := range rows {
			s.Invocations[i] = p.Index
		}
		var rep stream.Row
		switch {
		case tier == Tier1 || opts.Selection == SelectFirstChronological:
			rep = kd.First()
		case opts.Selection == SelectDominantCTAFirst:
			rep = kd.DominantCTA().First
		case opts.Selection == SelectMaxCTA:
			rep = kd.MaxCTA().First
		default:
			return nil, tier, fmt.Errorf("unknown selection policy %d", opts.Selection)
		}
		res.registerRow(rep)
		s.Representative = rep.Index
		if sp.Active() {
			sp.SetAttr("strata", 1)
			sp.SetAttr("strata_cov", []float64{acc.CoV()})
		}
		return []Stratum{s}, tier, nil
	}

	// Tier-3: split the reservoir sample exactly as the materializing path
	// splits the full kernel, then scale each stratum's sampled instruction
	// share up to the kernel's exact total so weights stay unbiased.
	counts := make([]float64, len(rows))
	var sampledSum float64
	for i, p := range rows {
		counts[i] = p.InstructionCount
		sampledSum += p.InstructionCount
	}
	strata, err := tier3Strata(ctx, sp, kd.Name, counts, rows, opts)
	if err != nil {
		return nil, tier, err
	}
	scale := acc.Sum() / sampledSum
	for i := range strata {
		strata[i].InstructionSum *= scale
	}
	return strata, tier, nil
}
