package profiler

import (
	"fmt"

	"github.com/gpusampling/sieve/internal/cudamodel"
	"github.com/gpusampling/sieve/internal/gpu"
)

// defaultDetailedBatch is the number of leading invocations TwoLevel
// profiles in full when its caller asks for the default.
const defaultDetailedBatch = 2000

// lightPerInvocationSeconds is the cost of recording a name and launch dims
// for one invocation in TwoLevel's cheap pass.
const lightPerInvocationSeconds = 0.0002

// TwoLevel profiles the workload with the profiling-cost mitigation Baddouh
// et al. propose for PKS and the Sieve paper describes in Section II-B:
// detailed 12-metric profiling (Full's cost model) for the first
// detailedBatch kernel invocations (≤ 0 selects defaultDetailedBatch),
// followed by low-overhead profiling that collects only kernel names and
// launch dimensions for the remainder. Characteristics for the cheap
// remainder are approximated from the detailed batch: each later invocation
// inherits the mean characteristics observed for its (kernel, CTA size)
// pair, scaled to its launch size. A workload no longer than the batch is
// profiled by Full.
//
// The approximation is exactly the weakness the paper exploits: beyond the
// detailed batch, the profile no longer reflects per-invocation behaviour.
func TwoLevel(w *cudamodel.Workload, hw *gpu.Model, detailedBatch int) (*Profile, error) {
	if detailedBatch <= 0 {
		detailedBatch = defaultDetailedBatch
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if detailedBatch >= len(w.Invocations) {
		return Full(w, hw)
	}

	// Detailed batch: real characteristics, Nsight cost model.
	p := &Profile{
		Workload:  w.Name,
		Suite:     w.Suite,
		Tool:      toolTwoLevel,
		Collected: cudamodel.CharacteristicNames(),
		Records:   make([]Record, len(w.Invocations)),
	}
	type key struct {
		kernel string
		cta    int
	}
	sums := make(map[key]*charAccumulator)
	var wall float64
	for i := 0; i < detailedBatch; i++ {
		inv := &w.Invocations[i]
		p.Records[i] = record(inv)
		wall += nsightSeconds(inv, hw, i)
		k := key{inv.Kernel, inv.CTASize()}
		acc, ok := sums[k]
		if !ok {
			acc = &charAccumulator{}
			sums[k] = acc
		}
		acc.add(&inv.Chars)
	}
	// Fallback pools per kernel (any CTA size) for pairs unseen in the
	// detailed batch.
	kernelSums := make(map[string]*charAccumulator)
	for k, acc := range sums {
		ka, ok := kernelSums[k.kernel]
		if !ok {
			ka = &charAccumulator{}
			kernelSums[k.kernel] = ka
		}
		ka.merge(acc)
	}

	// Light remainder: name + launch dims only; characteristics inherited
	// from the detailed batch, scaled by launch size.
	for i := detailedBatch; i < len(w.Invocations); i++ {
		inv := &w.Invocations[i]
		rec := Record{
			Kernel:  inv.Kernel,
			Index:   inv.Index,
			Seq:     inv.Seq,
			CTASize: inv.CTASize(),
		}
		acc := sums[key{inv.Kernel, inv.CTASize()}]
		if acc == nil {
			acc = kernelSums[inv.Kernel]
		}
		if acc == nil {
			return nil, fmt.Errorf("profiler: two-level: kernel %q never appeared in the detailed batch", inv.Kernel)
		}
		mean := acc.mean()
		// Scale work-proportional counters by the launch-size ratio — the
		// only size signal the light pass records.
		ratio := float64(inv.Grid.Count()) / mean.ThreadBlocks
		if mean.ThreadBlocks == 0 || ratio <= 0 {
			ratio = 1
		}
		rec.Chars = scaleCharacteristics(mean, ratio)
		rec.Chars.ThreadBlocks = float64(inv.Grid.Count())
		p.Records[i] = rec
		wall += lightPerInvocationSeconds + hw.Seconds(hw.Cycles(inv))*0.02
	}
	p.WallSeconds = wall
	return p, nil
}

// charAccumulator averages characteristic vectors.
type charAccumulator struct {
	n   int
	sum [cudamodel.NumCharacteristics]float64
}

func (a *charAccumulator) add(c *cudamodel.Characteristics) {
	a.n++
	for i, v := range c.Vector() {
		a.sum[i] += v
	}
}

func (a *charAccumulator) merge(b *charAccumulator) {
	a.n += b.n
	for i := range a.sum {
		a.sum[i] += b.sum[i]
	}
}

func (a *charAccumulator) mean() cudamodel.Characteristics {
	v := make([]float64, cudamodel.NumCharacteristics)
	for i := range v {
		v[i] = a.sum[i] / float64(a.n)
	}
	return cudamodel.Characteristics{
		CoalescedGlobalLoads:  v[0],
		CoalescedGlobalStores: v[1],
		CoalescedLocalLoads:   v[2],
		ThreadGlobalLoads:     v[3],
		ThreadGlobalStores:    v[4],
		ThreadLocalLoads:      v[5],
		ThreadSharedLoads:     v[6],
		ThreadSharedStores:    v[7],
		ThreadGlobalAtomics:   v[8],
		InstructionCount:      v[9],
		DivergenceEfficiency:  v[10],
		ThreadBlocks:          v[11],
	}
}

// scaleCharacteristics multiplies the work-proportional counters by ratio,
// leaving the intensive metrics (divergence efficiency) untouched.
func scaleCharacteristics(c cudamodel.Characteristics, ratio float64) cudamodel.Characteristics {
	c.CoalescedGlobalLoads *= ratio
	c.CoalescedGlobalStores *= ratio
	c.CoalescedLocalLoads *= ratio
	c.ThreadGlobalLoads *= ratio
	c.ThreadGlobalStores *= ratio
	c.ThreadLocalLoads *= ratio
	c.ThreadSharedLoads *= ratio
	c.ThreadSharedStores *= ratio
	c.ThreadGlobalAtomics *= ratio
	c.InstructionCount *= ratio
	c.ThreadBlocks *= ratio
	return c
}
