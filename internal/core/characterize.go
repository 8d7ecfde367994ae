package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/gpusampling/sieve/internal/stats"
)

// KernelSummary characterizes one kernel's invocation behaviour — the
// workload-analysis view of a profile (the paper's Fig. 1 notes the selected
// representatives drive "detailed simulation or workload analysis").
type KernelSummary struct {
	// Kernel is the kernel name.
	Kernel string
	// Invocations is the number of profiled invocations.
	Invocations int
	// Tier is the kernel's classification at the given θ.
	Tier Tier
	// InstrMin/Mean/Max summarize the dynamic instruction counts.
	InstrMin, InstrMean, InstrMax float64
	// InstrCoV is the coefficient of variation of the instruction counts.
	InstrCoV float64
	// InstrShare is the kernel's fraction of the workload's instructions.
	InstrShare float64
	// DominantCTA is the most common CTA size.
	DominantCTA int
	// Strata is the number of strata the kernel contributes at θ.
	Strata int
}

// CharacterizeContext summarizes every kernel of a profile at the given θ
// (DefaultTheta if zero), ordered by descending instruction share.
// Cancellation is inherited from the underlying StratifyContext pass.
func CharacterizeContext(ctx context.Context, profile []InvocationProfile, theta float64) ([]KernelSummary, error) {
	res, err := StratifyContext(ctx, profile, Options{Theta: theta})
	if err != nil {
		return nil, err
	}

	type agg struct {
		counts []float64
		ctas   map[int]int
		strata int
		tier   Tier
	}
	byKernel := make(map[string]*agg)
	for i := range profile {
		p := &profile[i]
		a, ok := byKernel[p.Kernel]
		if !ok {
			a = &agg{ctas: make(map[int]int)}
			byKernel[p.Kernel] = a
		}
		a.counts = append(a.counts, p.InstructionCount)
		a.ctas[p.CTASize]++
	}
	for _, s := range res.Strata {
		a := byKernel[s.Kernel]
		if a == nil {
			return nil, fmt.Errorf("core: stratum references unknown kernel %q", s.Kernel)
		}
		a.strata++
		a.tier = s.Tier
	}

	out := make([]KernelSummary, 0, len(byKernel))
	for kernel, a := range byKernel {
		sum := stats.Sum(a.counts)
		dominant, best := 0, -1
		for cta, n := range a.ctas {
			if n > best || (n == best && cta < dominant) {
				dominant, best = cta, n
			}
		}
		out = append(out, KernelSummary{
			Kernel:      kernel,
			Invocations: len(a.counts),
			Tier:        a.tier,
			InstrMin:    stats.Min(a.counts),
			InstrMean:   stats.Mean(a.counts),
			InstrMax:    stats.Max(a.counts),
			InstrCoV:    stats.CoV(a.counts),
			InstrShare:  sum / res.TotalInstructions,
			DominantCTA: dominant,
			Strata:      a.strata,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].InstrShare != out[j].InstrShare {
			return out[i].InstrShare > out[j].InstrShare
		}
		return out[i].Kernel < out[j].Kernel
	})
	return out, nil
}
