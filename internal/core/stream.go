package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/gpusampling/sieve/internal/obs"
	"github.com/gpusampling/sieve/internal/stats"
)

// Defaults for StreamOptions fields left zero.
const (
	// DefaultReservoirSize bounds the rows retained per kernel.
	DefaultReservoirSize = 4096
	// DefaultSeed seeds the reservoir priority hash.
	DefaultSeed = 1
)

// cancelCheckRows is how many rows the ingestion pass reads between checks
// of its context.
const cancelCheckRows = 1024

// StreamOptions configures bounded-memory streaming stratification. The
// embedded Options carry the usual θ/selection/splitter knobs; the extra
// fields bound the streaming pass itself. Parallelism is ignored: the
// ingestion pass and the per-kernel loop are sequential, so a stream plan has
// the same bytes at any worker count.
type StreamOptions struct {
	Options
	// ReservoirSize bounds the rows retained per kernel;
	// DefaultReservoirSize if zero. Kernels whose invocation count fits the
	// reservoir are stratified exactly — byte-identical to StratifyContext
	// on the same rows; larger kernels fall back to sampled Tier-3 splitting
	// and partial membership lists (Result.Sampled).
	ReservoirSize int
	// Seed seeds the deterministic reservoir priority hash; DefaultSeed if
	// zero. Reservoir membership is a pure function of (Seed, invocation
	// index).
	Seed uint64
}

// withDefaults returns the options with zero values replaced by defaults.
func (o StreamOptions) withDefaults() (StreamOptions, error) {
	var err error
	if o.Options, err = o.Options.withDefaults(); err != nil {
		return o, err
	}
	if o.ReservoirSize == 0 {
		o.ReservoirSize = DefaultReservoirSize
	}
	if o.ReservoirSize < 1 {
		return o, fmt.Errorf("core: reservoir size %d < 1", o.ReservoirSize)
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	return o, nil
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
// context stops the single pass mid-stream and reports ctx.Err(). A source
// error is returned as is.
func StratifyStreamContext(ctx context.Context, next RowSource, opts StreamOptions) (*Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	// The stream.ingest span and the per-kernel core.kernel spans nest under
	// this one; without a collector StartSpan is a no-op and the pass is
	// untouched.
	ctx, sp := obs.StartSpan(ctx, "core.stratify_stream")
	defer sp.End()
	if sp.Active() {
		sp.SetAttr("theta", o.Theta)
		sp.SetAttr("splitter", o.Tier3Splitter.String())
	}
	kernels, rows, err := ingest(ctx, next, o)
	if err != nil {
		return nil, err
	}
	if rows == 0 {
		return nil, fmt.Errorf("core: %w", ErrEmptyProfile)
	}

	res := &Result{
		Theta:      o.Theta,
		byIndex:    make(map[int]*InvocationProfile),
		posByIndex: make(map[int]int),
	}
	for _, kd := range kernels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var strata []Stratum
		var tier Tier
		if !kd.res.overflowed {
			// Exact fallback: the reservoir holds every row, so run the
			// very same per-kernel stratifier StratifyContext uses.
			strata, tier, err = stratifyKernel(ctx, kd.name, res.registerRows(kd.res.rows), o.Options)
		} else {
			res.Sampled = true
			strata, tier, err = stratifyKernelDigest(ctx, kd, o.Options, res)
		}
		if err != nil {
			return nil, fmt.Errorf("core: kernel %s: %w", kd.name, err)
		}
		res.TierInvocations[tier-1] += kd.acc.N()
		res.Strata = append(res.Strata, strata...)
	}
	res.setWeights()
	if sp.Active() {
		sp.SetAttr("kernels", len(kernels))
		sp.SetAttr("strata", len(res.Strata))
		sp.SetAttr("sampled", res.Sampled)
		sp.Add("rows", int64(rows))
	}
	return res, nil
}

// ctaClass summarizes the invocations of one kernel sharing a thread-block
// size.
type ctaClass struct {
	size  int
	count int
	first sample // earliest invocation with this size
}

// kernelDigest is the bounded per-kernel state of one streaming pass.
type kernelDigest struct {
	name  string
	acc   stats.Accumulator // instruction counts
	first sample            // earliest invocation
	ctas  map[int]*ctaClass // CTA size → class summary
	res   reservoir
}

// add folds one row into the digest. Rows arrive in ascending Index order, so
// the first row seen (overall and per CTA size) is the earliest.
func (d *kernelDigest) add(s sample) {
	d.acc.Add(s.row.InstructionCount)
	if d.acc.N() == 1 {
		d.first = s
	}
	if c, ok := d.ctas[s.row.CTASize]; ok {
		c.count++
	} else {
		d.ctas[s.row.CTASize] = &ctaClass{size: s.row.CTASize, count: 1, first: s}
	}
	d.res.add(s)
}

// dominantCTA returns the most frequent CTA class; ties break toward the
// class whose first invocation is earliest, matching selectRepresentative's
// "size seen first" rule. Unlike reservoir contents this is exact: the
// frequency map tracks every invocation.
func (d *kernelDigest) dominantCTA() ctaClass {
	var best *ctaClass
	for _, c := range d.ctas {
		if best == nil || c.count > best.count ||
			(c.count == best.count && c.first.row.Index < best.first.row.Index) {
			best = c
		}
	}
	return *best
}

// maxCTA returns the class with the largest thread-block size (exact).
func (d *kernelDigest) maxCTA() ctaClass {
	var best *ctaClass
	for _, c := range d.ctas {
		if best == nil || c.size > best.size {
			best = c
		}
	}
	return *best
}

// ingest drives one bounded-memory pass over the source and returns one
// digest per kernel, sorted by kernel name, plus the number of rows read.
// Each row passes checkRow and must have an Index above the previous row's,
// which also rejects duplicate indices. An empty source yields no digests,
// not an error. The pass checks ctx before the first row and once per
// cancelCheckRows rows after it.
func ingest(ctx context.Context, next RowSource, o StreamOptions) ([]*kernelDigest, int, error) {
	// Observability: record the pass as a stream.ingest span (row/kernel
	// totals plus per-kernel exact-vs-sampled retention) when a collector
	// rides ctx; a bare context skips all of it.
	_, sp := obs.StartSpan(ctx, "stream.ingest")
	defer sp.End()
	if sp.Active() {
		sp.SetAttr("reservoir_size", o.ReservoirSize)
	}
	byName := make(map[string]*kernelDigest)
	pos, lastIndex := 0, math.MinInt
	for ; ; pos++ {
		if pos%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		row, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		if err := checkRow(&row, pos); err != nil {
			return nil, 0, err
		}
		if row.Index <= lastIndex {
			return nil, 0, fmt.Errorf("core: profile row %d: invocation index %d not above previous index %d (streaming ingestion requires strictly ascending unique indices)", pos, row.Index, lastIndex)
		}
		lastIndex = row.Index
		kd, ok := byName[row.Kernel]
		if !ok {
			kd = &kernelDigest{name: row.Kernel, ctas: make(map[int]*ctaClass), res: reservoir{cap: o.ReservoirSize}}
			byName[row.Kernel] = kd
		}
		kd.add(sample{row: row, pos: pos, pri: priority(o.Seed, row.Index)})
	}
	kernels := make([]*kernelDigest, 0, len(byName))
	for _, kd := range byName {
		kernels = append(kernels, kd)
	}
	sort.Slice(kernels, func(i, j int) bool { return kernels[i].name < kernels[j].name })
	if sp.Active() {
		sp.Add("rows", int64(pos))
		sp.SetAttr("kernels", len(kernels))
		exact, sampled := 0, 0
		for _, kd := range kernels {
			if kd.res.overflowed {
				sampled++
			} else {
				exact++
			}
			sp.Add("retained", int64(len(kd.res.rows)))
		}
		sp.SetAttr("kernels_exact", exact)
		sp.SetAttr("kernels_sampled", sampled)
	}
	return kernels, pos, nil
}

// registerRows sorts a kernel's retained rows by Index, adds them to the
// result's lookup maps and returns them as stratifier input.
func (r *Result) registerRows(rows []sample) []*InvocationProfile {
	sort.Slice(rows, func(a, b int) bool { return rows[a].row.Index < rows[b].row.Index })
	out := make([]*InvocationProfile, len(rows))
	for i := range rows {
		s := &rows[i]
		r.byIndex[s.row.Index] = &s.row
		r.posByIndex[s.row.Index] = s.pos
		out[i] = &s.row
	}
	return out
}

// stratifyKernelDigest builds strata for a kernel that overflowed its
// reservoir, from the digest's exact aggregates plus the bounded row sample.
// Its core.kernel span mirrors stratifyKernel's, with sampled=true and the
// retained-sample size alongside the exact invocation count.
func stratifyKernelDigest(ctx context.Context, kd *kernelDigest, opts Options, res *Result) ([]Stratum, Tier, error) {
	acc := kd.acc
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
	rows := res.registerRows(kd.res.rows)
	if sp.Active() {
		sp.SetAttr("kernel", kd.name)
		sp.SetAttr("rows", acc.N())
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
		s := Stratum{Kernel: kd.name, Tier: tier, InstructionSum: acc.Sum()}
		s.Invocations = make([]int, len(rows))
		for i, p := range rows {
			s.Invocations[i] = p.Index
		}
		var rep sample
		switch {
		case tier == Tier1 || opts.Selection == SelectFirstChronological:
			rep = kd.first
		case opts.Selection == SelectDominantCTAFirst:
			rep = kd.dominantCTA().first
		case opts.Selection == SelectMaxCTA:
			rep = kd.maxCTA().first
		default:
			return nil, tier, fmt.Errorf("unknown selection policy %d", opts.Selection)
		}
		// The representative may have left the reservoir; the plan still
		// needs its row for prediction.
		if _, ok := res.byIndex[rep.row.Index]; !ok {
			res.byIndex[rep.row.Index] = &rep.row
			res.posByIndex[rep.row.Index] = rep.pos
		}
		s.Representative = rep.row.Index
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
	strata, err := tier3Strata(ctx, sp, kd.name, counts, rows, opts)
	if err != nil {
		return nil, tier, err
	}
	scale := acc.Sum() / sampledSum
	for i := range strata {
		strata[i].InstructionSum *= scale
	}
	return strata, tier, nil
}
