package core

import (
	"fmt"
	"sort"
)

// ErrorInterval is a methodology-supplied confidence interval on a plan's
// relative estimation error. Strategies that quantify their own uncertainty
// (ranked-set resampling, two-phase pilot variance) attach one to the plan;
// all quantities are relative (0.01 = 1%).
type ErrorInterval struct {
	// Mean is the central estimate of the relative error. Resampling
	// strategies report the mean signed error across resamples; analytic
	// strategies report 0 (the estimator is unbiased in expectation).
	Mean float64
	// StdErr is the standard error of Mean — s/√R for R resamples, or the
	// analytic standard deviation for variance-derived intervals.
	StdErr float64
	// Low and High bound the interval (Mean ± 2·StdErr).
	Low  float64
	High float64
	// Resamples is the number of repeated subsamples behind the interval;
	// 0 marks an analytic (variance-derived) interval.
	Resamples int
}

// StratumSpec describes one stratum of a plan being assembled by an
// alternate sampling methodology: which invocations it contains, which one
// represents it, and the tier label it should carry.
type StratumSpec struct {
	// Kernel labels the stratum; conventionally the kernel every member
	// belongs to, but methodologies that group across kernels (e.g. PKS
	// clusters) may use a synthetic label.
	Kernel string
	// Tier is the tier label recorded on the stratum (Tier1..Tier3).
	Tier Tier
	// Members holds the global invocation indices of every member, in any
	// order; Assemble sorts them chronologically.
	Members []int
	// Representative is the selected invocation index; must be a member.
	Representative int
}

// Assemble builds a complete, predictable Result from explicit stratum
// specifications. It is the constructor alternate methodologies use: the
// specs must partition the profile exactly (every row in exactly one
// stratum), and Assemble computes instruction sums, instruction-share
// weights, tier totals and the prediction indexes so the assembled plan
// supports Predict, Speedup, WeightedCycleCoV and EstimateErrorBound
// exactly like a plan built by StratifyContext.
func Assemble(profile []InvocationProfile, specs []StratumSpec, theta float64) (*Result, error) {
	if theta <= 0 {
		return nil, fmt.Errorf("core: %w: assemble needs a positive theta, got %g", ErrInvalidTheta, theta)
	}
	if len(profile) == 0 {
		return nil, fmt.Errorf("core: %w", ErrEmptyProfile)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: assemble: no strata specified")
	}
	res, err := newResult(profile, theta)
	if err != nil {
		return nil, err
	}

	assigned := make(map[int]int, len(profile)) // invocation index → spec position
	for si, spec := range specs {
		if spec.Tier < Tier1 || spec.Tier > Tier3 {
			return nil, fmt.Errorf("core: assemble: stratum %d (%s) has invalid tier %d", si, spec.Kernel, spec.Tier)
		}
		if len(spec.Members) == 0 {
			return nil, fmt.Errorf("core: assemble: stratum %d (%s) has no members", si, spec.Kernel)
		}
		s := Stratum{Kernel: spec.Kernel, Tier: spec.Tier}
		s.Invocations = append([]int(nil), spec.Members...)
		sort.Ints(s.Invocations)
		repSeen := false
		for _, idx := range s.Invocations {
			row, ok := res.byIndex[idx]
			if !ok {
				return nil, fmt.Errorf("core: assemble: stratum %d (%s) references unknown invocation %d", si, spec.Kernel, idx)
			}
			if prev, dup := assigned[idx]; dup {
				return nil, fmt.Errorf("core: assemble: invocation %d assigned to strata %d and %d", idx, prev, si)
			}
			assigned[idx] = si
			s.InstructionSum += row.InstructionCount
			if idx == spec.Representative {
				repSeen = true
			}
		}
		if !repSeen {
			return nil, fmt.Errorf("core: assemble: stratum %d (%s) representative %d is not a member", si, spec.Kernel, spec.Representative)
		}
		s.Representative = spec.Representative
		res.TierInvocations[spec.Tier-1] += len(s.Invocations)
		res.Strata = append(res.Strata, s)
	}
	if len(assigned) != len(profile) {
		return nil, fmt.Errorf("core: assemble: strata cover %d of %d invocations", len(assigned), len(profile))
	}
	res.setWeights()
	return res, nil
}

// ChooseRepresentative applies the paper's Section III-C representative
// selection to an arbitrary member set, so alternate methodologies reuse
// the exact policy (dominant-CTA-first, first-chronological, max-CTA) the
// default sampler applies within its strata. Members may arrive in any
// order; selection runs on the chronological ordering.
func ChooseRepresentative(members []InvocationProfile, tier Tier, policy SelectionPolicy) (int, error) {
	if len(members) == 0 {
		return 0, fmt.Errorf("core: choose representative: empty stratum")
	}
	ordered := make([]*InvocationProfile, len(members))
	for i := range members {
		ordered[i] = &members[i]
	}
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].Index < ordered[b].Index })
	return selectRepresentative(ordered, tier, policy)
}
