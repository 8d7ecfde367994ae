package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/gpusampling/sieve/internal/stats"
)

// CycleSource supplies the measured (or simulated) cycle count of one
// invocation, addressed by its global chronological index. It abstracts over
// "run the representative on real hardware" and "simulate the representative
// trace".
type CycleSource func(invocationIndex int) (float64, error)

// Prediction is Sieve's application-level performance estimate
// (Section III-D).
type Prediction struct {
	// IPC is the predicted application IPC: the weighted harmonic mean of
	// per-representative IPC values.
	IPC float64
	// Cycles is the predicted total cycle count: total instructions divided
	// by predicted IPC.
	Cycles float64
	// RepresentativeCycles is the summed cycle count of the simulated
	// representatives — the cost of the sampled run.
	RepresentativeCycles float64
}

// Predict estimates whole-application performance from per-representative
// cycle counts: IPC_i = instr(rep_i)/cycles(rep_i), combined as the weighted
// harmonic mean with the strata's instruction-share weights.
func (r *Result) Predict(cycles CycleSource) (*Prediction, error) {
	return r.PredictContext(context.Background(), cycles)
}

// PredictContext is Predict with cancellation: ctx is checked before each
// representative's cycle lookup, the step that may run a real simulation or
// hardware measurement, so a cancelled caller stops paying for cycles it no
// longer wants and receives ctx.Err().
func (r *Result) PredictContext(ctx context.Context, cycles CycleSource) (*Prediction, error) {
	if len(r.Strata) == 0 {
		return nil, fmt.Errorf("core: no strata to predict from")
	}
	ipcs := make([]float64, len(r.Strata))
	weights := make([]float64, len(r.Strata))
	repCycles := make([]float64, len(r.Strata))
	var repTotal float64
	for i := range r.Strata {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := &r.Strata[i]
		rep, ok := r.byIndex[s.Representative]
		if !ok {
			return nil, fmt.Errorf("core: stratum %d references unknown invocation %d", i, s.Representative)
		}
		c, err := cycles(s.Representative)
		if err != nil {
			return nil, fmt.Errorf("core: cycle source for invocation %d: %w", s.Representative, err)
		}
		if c <= 0 {
			return nil, fmt.Errorf("core: non-positive cycle count %g for invocation %d", c, s.Representative)
		}
		ipcs[i] = rep.InstructionCount / c
		weights[i] = s.Weight
		repCycles[i] = c
		repTotal += c
	}
	if r.CountWeighted {
		// Count-weighted estimator (PKS): each representative stands in for
		// every member of its stratum cycle-for-cycle, so predicted total
		// cycles are Σ members × representative cycles and IPC follows.
		var total float64
		for i := range r.Strata {
			total += float64(len(r.Strata[i].Invocations)) * repCycles[i]
		}
		return &Prediction{
			IPC:                  r.TotalInstructions / total,
			Cycles:               total,
			RepresentativeCycles: repTotal,
		}, nil
	}
	ipc, err := stats.WeightedHarmonicMean(ipcs, weights)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Prediction{
		IPC:                  ipc,
		Cycles:               r.TotalInstructions / ipc,
		RepresentativeCycles: repTotal,
	}, nil
}

// RepresentativeIndices returns the selected invocation indices, ascending.
func (r *Result) RepresentativeIndices() []int {
	out := make([]int, len(r.Strata))
	for i := range r.Strata {
		out[i] = r.Strata[i].Representative
	}
	sort.Ints(out)
	return out
}

// NumStrata returns the number of strata (and thus representatives).
func (r *Result) NumStrata() int { return len(r.Strata) }

// NumInvocations returns the total invocation count covered by the strata.
func (r *Result) NumInvocations() int {
	n := 0
	for i := range r.Strata {
		n += len(r.Strata[i].Invocations)
	}
	return n
}

// golden resolves one invocation Index to its golden cycle count.
// goldenCycles is positional: entry i belongs to the i-th profile row
// ingested by StratifyContext/StratifyStreamContext, NOT to global invocation
// index i. The two coincide for dense 0..n-1 profiles, but CSV-loaded or
// filtered profiles with sparse or offset indices must be resolved through
// the plan's index→position mapping — indexing goldenCycles by Index directly
// would silently read another invocation's cycles whenever the index happens
// to be in range.
func (r *Result) golden(goldenCycles []float64, idx int) (float64, error) {
	pos, ok := r.posByIndex[idx]
	if !ok {
		return 0, fmt.Errorf("core: invocation index %d not in the stratified profile", idx)
	}
	if pos >= len(goldenCycles) {
		return 0, fmt.Errorf("core: golden cycles has %d entries; invocation %d is profile row %d", len(goldenCycles), idx, pos)
	}
	return goldenCycles[pos], nil
}

// Speedup returns the simulation speedup of the sampling plan given the
// golden per-invocation cycle counts of the full run: total cycles divided by
// the representatives' cycles (Section IV: "the ratio of the total cycle
// count for the entire workload execution divided by the total cycle count
// for all representative kernel invocations").
//
// goldenCycles parallels the profile rows passed to StratifyContext: entry i
// is the measured cycle count of the i-th row, whatever its global invocation
// Index. Sampled streaming plans cannot compute a speedup — their membership
// lists are bounded samples, so the numerator would silently undercount.
func (r *Result) Speedup(goldenCycles []float64) (float64, error) {
	if r.Sampled {
		return 0, fmt.Errorf("core: %w: speedup undefined (stratum membership is partial); re-stratify with a reservoir that fits every kernel", ErrSampledPlan)
	}
	var total, reps float64
	for i := range r.Strata {
		s := &r.Strata[i]
		for _, idx := range s.Invocations {
			c, err := r.golden(goldenCycles, idx)
			if err != nil {
				return 0, err
			}
			total += c
		}
		c, err := r.golden(goldenCycles, s.Representative)
		if err != nil {
			return 0, err
		}
		reps += c
	}
	if reps == 0 {
		return 0, fmt.Errorf("core: representatives have zero cycles")
	}
	return total / reps, nil
}

// WeightedCycleCoV returns the invocation-weighted mean coefficient of
// variation of cycle counts within strata — the dispersion metric of Fig. 4.
// Single-member strata contribute zero dispersion. goldenCycles follows the
// same positional contract as Speedup: entry i belongs to the i-th profile
// row, resolved through the plan's index→position mapping.
func (r *Result) WeightedCycleCoV(goldenCycles []float64) (float64, error) {
	if r.Sampled {
		return 0, fmt.Errorf("core: %w: cycle CoV undefined (stratum membership is partial)", ErrSampledPlan)
	}
	var num, den float64
	for i := range r.Strata {
		s := &r.Strata[i]
		var acc stats.Accumulator
		for _, idx := range s.Invocations {
			c, err := r.golden(goldenCycles, idx)
			if err != nil {
				return 0, err
			}
			acc.Add(c)
		}
		num += acc.CoV() * float64(len(s.Invocations))
		den += float64(len(s.Invocations))
	}
	if den == 0 {
		return 0, fmt.Errorf("core: no invocations in strata")
	}
	return num / den, nil
}

// TierFractions computes, for each θ in thetas, the fraction of invocations
// classified Tier-1, Tier-2 and Tier-3 — the quantity Fig. 2 plots. The
// returned slice parallels thetas; each element sums to one. Every θ in the
// sweep is used verbatim: a zero entry is an error, not a silent request for
// DefaultTheta (a Fig. 2-style sweep including θ=0 used to quietly report
// the θ=0.4 mix instead).
func TierFractions(profile []InvocationProfile, thetas []float64) ([][3]float64, error) {
	out := make([][3]float64, len(thetas))
	for ti, theta := range thetas {
		res, err := StratifyContext(context.Background(), profile, Options{Theta: theta, ThetaSet: true})
		if err != nil {
			return nil, fmt.Errorf("theta sweep entry %d (θ=%g): %w", ti, theta, err)
		}
		total := float64(res.NumInvocations())
		for tier := 0; tier < 3; tier++ {
			out[ti][tier] = float64(res.TierInvocations[tier]) / total
		}
	}
	return out, nil
}
