// Package stream implements single-pass, bounded-memory ingestion of
// per-invocation profile records — the first phase of a two-phase sampling
// pipeline in the spirit of two-phase stratified CPU sampling: a cheap
// streaming sweep over the *full* run collects per-kernel online statistics
// (Welford accumulators), exact dominant-CTA/first-invocation tracking, and a
// deterministic bounded reservoir of rows per kernel; the expensive work
// (Tier-3 KDE splitting, representative selection) then runs on the bounded
// state only. Memory is O(kernels × reservoir), independent of the number of
// invocations, so workloads with millions of kernel launches ingest at
// constant memory.
//
// # Determinism
//
// Reservoir membership is decided by a priority hash over (seed, invocation
// index): each kernel retains the ReservoirSize rows with the smallest
// priority ("bottom-k" priority sampling). Because the priority is a pure
// function of the record, membership is independent of arrival order, shard
// assignment and worker count — the same rows survive at any Parallelism.
// Records are dispatched to workers in fixed-size batches assigned
// round-robin, and per-shard accumulators are merged in shard order
// (stats.Accumulator.Merge), so every aggregate is reproducible for a fixed
// (Parallelism, BatchSize) configuration; floating-point sums may differ in
// the last ulp across *different* worker counts, exactly as any parallel
// reduction does. Integer state (counts, CTA frequencies, first/dominant
// rows, reservoir membership) is identical at any worker count.
//
// # Ordering contract
//
// Sources must yield records in strictly ascending global invocation-index
// order — the natural order of a chronological profile log or CSV. This keeps
// duplicate detection O(1) instead of requiring an O(n) index set, which
// would defeat the bounded-memory purpose.
package stream

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"github.com/gpusampling/sieve/internal/obs"
	"github.com/gpusampling/sieve/internal/stats"
)

// Defaults for Options fields left zero.
const (
	// DefaultReservoirSize bounds the rows retained per kernel.
	DefaultReservoirSize = 4096
	// DefaultBatchSize is the number of records per dispatch batch in the
	// sharded pass.
	DefaultBatchSize = 1024
	// DefaultSeed seeds the reservoir priority hash.
	DefaultSeed = 1
)

// Row is one profiled kernel invocation — the minimal record the streaming
// pass consumes.
type Row struct {
	// Kernel is the kernel name.
	Kernel string
	// Index is the global chronological invocation index. Sources must
	// yield rows in strictly ascending Index order.
	Index int
	// Pos is the arrival ordinal (0-based position in the stream), assigned
	// by IngestContext. Consumers use it to address position-indexed side arrays
	// such as golden cycle counts.
	Pos int
	// InstructionCount is the dynamically executed instruction count.
	InstructionCount float64
	// CTASize is the thread-block size.
	CTASize int
}

// Source yields the next profile row, or io.EOF after the last one.
type Source func() (Row, error)

// Options configures the streaming pass.
type Options struct {
	// ReservoirSize bounds the rows retained per kernel;
	// DefaultReservoirSize if zero. A kernel whose invocation count fits
	// the reservoir is retained completely (exact downstream results).
	ReservoirSize int
	// Seed seeds the reservoir priority hash; DefaultSeed if zero.
	Seed uint64
	// Parallelism is the number of ingestion shards: 0 selects 1
	// (sequential). Reservoir membership and all integer state are
	// identical at any value; see the package comment for float caveats.
	Parallelism int
	// BatchSize is the records-per-batch dispatch granularity of the
	// sharded pass; DefaultBatchSize if zero.
	BatchSize int
}

func (o Options) withDefaults() (Options, error) {
	if o.ReservoirSize == 0 {
		o.ReservoirSize = DefaultReservoirSize
	}
	if o.ReservoirSize < 1 {
		return o, fmt.Errorf("stream: reservoir size %d < 1", o.ReservoirSize)
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.Parallelism == 0 {
		o.Parallelism = 1
	}
	if o.Parallelism < 0 {
		return o, fmt.Errorf("stream: negative parallelism %d", o.Parallelism)
	}
	if o.BatchSize == 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.BatchSize < 1 {
		return o, fmt.Errorf("stream: batch size %d < 1", o.BatchSize)
	}
	return o, nil
}

// CTAClass summarizes the invocations of one kernel sharing a thread-block
// size.
type CTAClass struct {
	// Size is the thread-block size.
	Size int
	// Count is how many invocations used it.
	Count int
	// First is the earliest (smallest-Index) invocation with this size.
	First Row
}

// KernelDigest is the bounded per-kernel state of one streaming pass.
type KernelDigest struct {
	// Name is the kernel name.
	Name string

	acc   stats.Accumulator // instruction counts
	first Row               // smallest-Index row
	ctas  map[int]*CTAClass // CTA size → class summary
	res   reservoir
}

func newKernelDigest(name string, o Options) *KernelDigest {
	return &KernelDigest{
		Name: name,
		ctas: make(map[int]*CTAClass),
		res:  reservoir{cap: o.ReservoirSize, seed: o.Seed},
	}
}

func (d *KernelDigest) add(row Row) {
	d.acc.Add(row.InstructionCount)
	if d.acc.N() == 1 || row.Index < d.first.Index {
		d.first = row
	}
	if c, ok := d.ctas[row.CTASize]; ok {
		c.Count++
		if row.Index < c.First.Index {
			c.First = row
		}
	} else {
		d.ctas[row.CTASize] = &CTAClass{Size: row.CTASize, Count: 1, First: row}
	}
	d.res.add(row)
}

// merge folds another shard's digest of the same kernel into d.
func (d *KernelDigest) merge(o *KernelDigest) {
	if o.acc.N() == 0 {
		return
	}
	if d.acc.N() == 0 {
		d.acc = o.acc
		d.first = o.first
	} else {
		d.acc.Merge(&o.acc)
		if o.first.Index < d.first.Index {
			d.first = o.first
		}
	}
	for size, oc := range o.ctas {
		if c, ok := d.ctas[size]; ok {
			c.Count += oc.Count
			if oc.First.Index < c.First.Index {
				c.First = oc.First
			}
		} else {
			cc := *oc
			d.ctas[size] = &cc
		}
	}
	d.res.merge(&o.res)
}

// N returns the number of invocations seen for this kernel.
func (d *KernelDigest) N() int { return d.acc.N() }

// Stats returns a copy of the kernel's instruction-count accumulator.
func (d *KernelDigest) Stats() stats.Accumulator { return d.acc }

// First returns the earliest (smallest-Index) invocation.
func (d *KernelDigest) First() Row { return d.first }

// Complete reports whether the reservoir retained every invocation, i.e.
// downstream results computed from Rows are exact rather than sampled.
func (d *KernelDigest) Complete() bool { return !d.res.overflowed }

// Rows returns the retained invocations in ascending Index order.
func (d *KernelDigest) Rows() []Row {
	out := make([]Row, len(d.res.rows))
	for i, s := range d.res.rows {
		out[i] = s.row
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// DominantCTA returns the most frequent CTA class; ties break toward the
// class whose first invocation is earliest, matching the materializing
// selector's "size seen first" rule. Unlike reservoir contents this is exact:
// the frequency map tracks every invocation.
func (d *KernelDigest) DominantCTA() CTAClass {
	var best *CTAClass
	for _, c := range d.ctas {
		if best == nil || c.Count > best.Count ||
			(c.Count == best.Count && c.First.Index < best.First.Index) {
			best = c
		}
	}
	if best == nil {
		return CTAClass{}
	}
	return *best
}

// MaxCTA returns the class with the largest thread-block size (exact).
func (d *KernelDigest) MaxCTA() CTAClass {
	var best *CTAClass
	for _, c := range d.ctas {
		if best == nil || c.Size > best.Size {
			best = c
		}
	}
	if best == nil {
		return CTAClass{}
	}
	return *best
}

// Retained returns the number of rows the reservoir holds — equal to N for
// complete kernels, ReservoirSize for overflowed ones.
func (d *KernelDigest) Retained() int { return len(d.res.rows) }

// Digest is the merged result of one streaming pass.
type Digest struct {
	// Kernels holds one digest per kernel, sorted by kernel name.
	Kernels []*KernelDigest
	// Rows is the total number of records ingested.
	Rows int
}

// shard is one worker's private per-kernel state.
type shard struct {
	opts    Options
	kernels map[string]*KernelDigest
}

func newShard(o Options) *shard {
	return &shard{opts: o, kernels: make(map[string]*KernelDigest)}
}

func (s *shard) add(row Row) {
	d, ok := s.kernels[row.Kernel]
	if !ok {
		d = newKernelDigest(row.Kernel, s.opts)
		s.kernels[row.Kernel] = d
	}
	d.add(row)
}

// IngestContext drives one bounded-memory pass over the source. Rows are
// validated (non-empty kernel, positive instruction count and CTA size) and
// must arrive in strictly ascending Index order, which also rejects duplicate
// indices. An empty source yields an empty digest, not an error. The reader
// checks ctx once per dispatch batch (BatchSize rows), so a cancelled or
// timed-out context stops the pass mid-stream — worker shards are drained and
// their goroutines released — and the call reports ctx.Err() instead of a
// digest.
func IngestContext(ctx context.Context, next Source, opts Options) (*Digest, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	// Observability: record the pass as a stream.ingest span (row/kernel
	// totals plus per-kernel exact-vs-sampled retention) when a collector
	// rides ctx; a bare context skips all of it.
	_, sp := obs.StartSpan(ctx, "stream.ingest")
	defer sp.End()
	if sp.Active() {
		sp.SetAttr("parallelism", o.Parallelism)
		sp.SetAttr("batch_size", o.BatchSize)
		sp.SetAttr("reservoir_size", o.ReservoirSize)
	}
	var shards []*shard
	var rows int
	if o.Parallelism <= 1 {
		shards, rows, err = ingestSequential(ctx, next, o)
	} else {
		shards, rows, err = ingestParallel(ctx, next, o)
	}
	if err != nil {
		return nil, err
	}
	d := assemble(shards, rows)
	if sp.Active() {
		sp.Add("rows", int64(d.Rows))
		sp.SetAttr("kernels", len(d.Kernels))
		exact, sampled := 0, 0
		for _, kd := range d.Kernels {
			if kd.Complete() {
				exact++
			} else {
				sampled++
			}
			sp.Add("retained", int64(kd.Retained()))
		}
		sp.SetAttr("kernels_exact", exact)
		sp.SetAttr("kernels_sampled", sampled)
	}
	return d, nil
}

// validate checks one row and the ordering contract. lastIndex is the
// previous row's Index (math.MinInt before the first row).
func validate(row Row, pos, lastIndex int) error {
	if row.Kernel == "" {
		return fmt.Errorf("stream: record %d has no kernel name", pos)
	}
	if row.InstructionCount <= 0 {
		return fmt.Errorf("stream: record %d (kernel %s) has non-positive instruction count", pos, row.Kernel)
	}
	if row.CTASize <= 0 {
		return fmt.Errorf("stream: record %d (kernel %s) has non-positive CTA size", pos, row.Kernel)
	}
	if row.Index <= lastIndex {
		return fmt.Errorf("stream: record %d: invocation index %d not above previous index %d (streaming ingestion requires strictly ascending unique indices)", pos, row.Index, lastIndex)
	}
	return nil
}

func ingestSequential(ctx context.Context, next Source, o Options) ([]*shard, int, error) {
	sh := newShard(o)
	pos, lastIndex := 0, math.MinInt
	for {
		// Check at the same granularity as the sharded pass: once per
		// BatchSize rows, plus before the first.
		if pos%o.BatchSize == 0 {
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
		row.Pos = pos
		if err := validate(row, pos, lastIndex); err != nil {
			return nil, 0, err
		}
		lastIndex = row.Index
		sh.add(row)
		pos++
	}
	return []*shard{sh}, pos, nil
}

// ingestParallel shards the pass: the reader validates rows and dispatches
// fixed-size batches round-robin to worker-owned shards, so which worker
// processes which row is a pure function of (arrival position, Parallelism,
// BatchSize) and the merged result is reproducible.
func ingestParallel(ctx context.Context, next Source, o Options) ([]*shard, int, error) {
	shards := make([]*shard, o.Parallelism)
	chans := make([]chan []Row, o.Parallelism)
	pool := sync.Pool{New: func() any { return make([]Row, 0, o.BatchSize) }}
	var wg sync.WaitGroup
	for i := range shards {
		shards[i] = newShard(o)
		chans[i] = make(chan []Row, 2)
		wg.Add(1)
		go func(sh *shard, ch chan []Row) {
			defer wg.Done()
			for batch := range ch {
				for i := range batch {
					sh.add(batch[i])
				}
				pool.Put(batch[:0]) //nolint:staticcheck // slice reuse is the point
			}
		}(shards[i], chans[i])
	}
	closeAll := func() {
		for _, ch := range chans {
			close(ch)
		}
		wg.Wait()
	}

	batch := pool.Get().([]Row)
	nextShard := 0
	flush := func() {
		if len(batch) == 0 {
			return
		}
		chans[nextShard] <- batch
		nextShard = (nextShard + 1) % o.Parallelism
		batch = pool.Get().([]Row)
	}
	pos, lastIndex := 0, math.MinInt
	for {
		// Cancellation is observed between dispatch batches: the current
		// batch is abandoned, the shard channels close, and closeAll waits
		// for every worker to exit before the error returns.
		if pos%o.BatchSize == 0 {
			if err := ctx.Err(); err != nil {
				closeAll()
				return nil, 0, err
			}
		}
		row, err := next()
		if err == io.EOF {
			break
		}
		if err == nil {
			row.Pos = pos
			err = validate(row, pos, lastIndex)
		}
		if err != nil {
			closeAll()
			return nil, 0, err
		}
		lastIndex = row.Index
		batch = append(batch, row)
		if len(batch) == o.BatchSize {
			flush()
		}
		pos++
	}
	flush()
	closeAll()
	return shards, pos, nil
}

// assemble merges the shards in shard order and sorts kernels by name.
func assemble(shards []*shard, rows int) *Digest {
	merged := make(map[string]*KernelDigest)
	var names []string
	for _, sh := range shards {
		for name, d := range sh.kernels {
			if m, ok := merged[name]; ok {
				m.merge(d)
			} else {
				merged[name] = d
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	dig := &Digest{Rows: rows, Kernels: make([]*KernelDigest, len(names))}
	for i, name := range names {
		dig.Kernels[i] = merged[name]
	}
	return dig
}
