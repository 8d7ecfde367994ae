package experiments

import (
	"fmt"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/cudamodel"
)

// The paper's evaluation assumes perfect warmup: "the cache and
// microarchitecture state is perfectly warmed up at the beginning of each
// sample", and notes that "studying the impact of warmup on sampling
// accuracy is left for future work" (Section IV). This file implements that
// study on the reproduction substrate: representative kernel invocations are
// re-measured as if simulated from cold microarchitectural state (empty
// caches, closed DRAM rows), and the resulting prediction error is compared
// with the perfect-warmup error.

// WarmupRow is one workload's sensitivity to sample warmup.
type WarmupRow struct {
	Name  string
	Suite string
	// PerfectWarmupError is Sieve's error with in-situ (warm) representative
	// measurements — the paper's assumption.
	PerfectWarmupError float64
	// ColdSampleError is Sieve's error when every representative is
	// measured from cold state.
	ColdSampleError float64
	// ColdPenalty is the mean slowdown of the representatives when cold.
	ColdPenalty float64
}

// Cold-start cost is dominated by compulsory misses: starting a sample with
// empty caches turns the first touch of the working set into DRAM traffic.
// For a long-running invocation this is a vanishing fraction of its total
// traffic — the paper's argument for assuming perfect warmup — while short
// invocations pay proportionally more.

// WarmupStudy measures, for every challenging workload, how Sieve's accuracy
// degrades when representatives are simulated without warmup.
func (r *Runner) WarmupStudy() ([]WarmupRow, error) {
	var rows []WarmupRow
	for _, name := range challengingNames() {
		p, err := r.get(name)
		if err != nil {
			return nil, err
		}
		warmPred, err := p.plans[core.MethodSieve].Predict(cyclesFrom(p.golden))
		if err != nil {
			return nil, err
		}

		// Cold measurement: re-run each representative with cold caches.
		coldCycles := make(map[int]float64)
		var penalty float64
		var n int
		for _, idx := range p.plans[core.MethodSieve].RepresentativeIndices() {
			inv := p.w.Invocations[idx] // copy
			chill(&inv)
			cold := p.hw.Cycles(&inv)
			coldCycles[idx] = cold
			penalty += cold / p.golden[idx]
			n++
		}
		coldPred, err := p.plans[core.MethodSieve].Predict(func(i int) (float64, error) {
			c, ok := coldCycles[i]
			if !ok {
				return 0, fmt.Errorf("invocation %d is not a representative", i)
			}
			return c, nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, WarmupRow{
			Name:               name,
			Suite:              p.w.Suite,
			PerfectWarmupError: relErr(warmPred.Cycles, p.total),
			ColdSampleError:    relErr(coldPred.Cycles, p.total),
			ColdPenalty:        penalty / float64(n),
		})
	}
	return rows, nil
}

// chill resets an invocation's hidden state to cold-start conditions: the
// cache hit rate loses the compulsory-miss fraction (working set over total
// traffic) and DRAM row buffers start closed.
func chill(inv *cudamodel.Invocation) {
	traffic := (inv.Chars.CoalescedGlobalLoads + inv.Chars.CoalescedGlobalStores) * 32
	if traffic > 0 {
		delta := inv.Hidden.L2WorkingSet / traffic
		if delta > 1 {
			delta = 1
		}
		inv.Hidden.CacheLocality -= delta
		if inv.Hidden.CacheLocality < 0 {
			inv.Hidden.CacheLocality = 0
		}
	}
	inv.Hidden.RowLocality *= 0.9
}

// RenderWarmup formats the warmup study.
func RenderWarmup(rows []WarmupRow) *Table {
	t := &Table{
		Title:  "Warmup study (paper future work): Sieve error with perfect vs no sample warmup",
		Header: []string{"workload", "perfect warmup", "cold samples", "cold slowdown"},
	}
	var warm, cold float64
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Name, pct(row.PerfectWarmupError), pct(row.ColdSampleError),
			fmt.Sprintf("%.2fx", row.ColdPenalty),
		})
		warm += row.PerfectWarmupError
		cold += row.ColdSampleError
	}
	n := float64(len(rows))
	t.Rows = append(t.Rows, []string{"average", pct(warm / n), pct(cold / n), ""})
	t.Notes = append(t.Notes,
		"the paper assumes perfect warmup; without functional warming, the cold-start",
		"penalty of each representative inflates predicted cycles for memory-bound strata")
	return t
}
