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
// function of the record, membership does not depend on arrival order. The
// pass is one sequential loop that adds every row to its kernel's state in
// arrival order, so every aggregate, floating-point sums included, is a pure
// function of the source and the options, whatever the worker count of the
// layers above.
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

	"github.com/gpusampling/sieve/internal/obs"
	"github.com/gpusampling/sieve/internal/stats"
)

// Defaults for Options fields left zero.
const (
	// DefaultReservoirSize bounds the rows retained per kernel.
	DefaultReservoirSize = 4096
	// DefaultSeed seeds the reservoir priority hash.
	DefaultSeed = 1
)

// cancelCheckRows is how many rows the pass reads between checks of its
// context.
const cancelCheckRows = 1024

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

// Digest is the result of one streaming pass.
type Digest struct {
	// Kernels holds one digest per kernel, sorted by kernel name.
	Kernels []*KernelDigest
	// Rows is the total number of records ingested.
	Rows int
}

// IngestContext drives one bounded-memory pass over the source. Rows are
// validated (non-empty kernel, positive instruction count and CTA size) and
// must arrive in strictly ascending Index order, which also rejects duplicate
// indices. An empty source yields an empty digest, not an error. The pass
// checks ctx before the first row and once per cancelCheckRows rows after
// it, so a cancelled or timed-out context stops the pass mid-stream and the
// call reports ctx.Err() instead of a digest.
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
		sp.SetAttr("reservoir_size", o.ReservoirSize)
	}
	kernels := make(map[string]*KernelDigest)
	pos, lastIndex := 0, math.MinInt
	for {
		if pos%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		row.Pos = pos
		if err := validate(row, pos, lastIndex); err != nil {
			return nil, err
		}
		lastIndex = row.Index
		kd, ok := kernels[row.Kernel]
		if !ok {
			kd = newKernelDigest(row.Kernel, o)
			kernels[row.Kernel] = kd
		}
		kd.add(row)
		pos++
	}
	d := assemble(kernels, pos)
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

// assemble sorts the kernels by name.
func assemble(kernels map[string]*KernelDigest, rows int) *Digest {
	dig := &Digest{Rows: rows, Kernels: make([]*KernelDigest, 0, len(kernels))}
	for _, kd := range kernels {
		dig.Kernels = append(dig.Kernels, kd)
	}
	sort.Slice(dig.Kernels, func(i, j int) bool { return dig.Kernels[i].Name < dig.Kernels[j].Name })
	return dig
}
