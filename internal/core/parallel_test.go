package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gpusampling/sieve/internal/obs"
)

// synthProfile builds a deterministic multi-kernel profile mixing Tier-1,
// Tier-2 and Tier-3 shapes so the parallel stratifier exercises every path.
func synthProfile(seed int64, kernels, maxInvocations int) []InvocationProfile {
	rng := rand.New(rand.NewSource(seed))
	ctas := []int{64, 128, 256, 512}
	var profile []InvocationProfile
	index := 0
	for k := 0; k < kernels; k++ {
		name := fmt.Sprintf("kernel_%02d", k)
		n := 1 + rng.Intn(maxInvocations)
		base := 1e4 * (1 + rng.Float64()*99)
		shape := k % 3
		for i := 0; i < n; i++ {
			count := base
			switch shape {
			case 1: // low variability: Tier-2 territory
				count = base * (1 + 0.1*rng.Float64())
			case 2: // bimodal: Tier-3 territory
				if rng.Intn(2) == 0 {
					count = base * (10 + rng.Float64())
				} else {
					count = base * (1 + 0.05*rng.Float64())
				}
			}
			profile = append(profile, InvocationProfile{
				Kernel:           name,
				Index:            index,
				InstructionCount: count,
				CTASize:          ctas[rng.Intn(len(ctas))],
			})
			index++
		}
	}
	return profile
}

// assertResultsEqual compares the externally visible stratification state.
func assertResultsEqual(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Strata, got.Strata) {
		t.Fatalf("%s: strata diverge from sequential result", label)
	}
	if want.TierInvocations != got.TierInvocations {
		t.Fatalf("%s: tier counts %v != %v", label, got.TierInvocations, want.TierInvocations)
	}
	if want.TotalInstructions != got.TotalInstructions {
		t.Fatalf("%s: total instructions %g != %g", label, got.TotalInstructions, want.TotalInstructions)
	}
}

func TestStratifyParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		profile  []InvocationProfile
		splitter Splitter
	}{
		{"many-kernels-kde", synthProfile(1, 24, 60), SplitKDE},
		{"many-kernels-equal-width", synthProfile(2, 16, 40), SplitEqualWidth},
		{"many-kernels-gmm", synthProfile(3, 10, 30), SplitGMM},
		{"single-kernel", synthProfile(4, 1, 80), SplitKDE},
		{"single-invocation", synthProfile(5, 1, 1), SplitKDE},
		{"two-invocations", synthProfile(6, 2, 1), SplitKDE},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// minRows 1 forces the pool even on these small synthetic
			// profiles, so the parallel path itself is what gets compared.
			seq, err := stratify(context.Background(), tc.profile, Options{Parallelism: 1, Tier3Splitter: tc.splitter}, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 2, 7, 64} {
				par, err := stratify(context.Background(), tc.profile, Options{Parallelism: workers, Tier3Splitter: tc.splitter}, 1)
				if err != nil {
					t.Fatalf("parallelism %d: %v", workers, err)
				}
				assertResultsEqual(t, seq, par, fmt.Sprintf("parallelism %d", workers))
			}
		})
	}
}

func TestStratifyParallelAcrossSeeds(t *testing.T) {
	for seed := int64(10); seed < 15; seed++ {
		profile := synthProfile(seed, 12, 50)
		seq, err := stratify(context.Background(), profile, Options{Parallelism: 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		par, err := stratify(context.Background(), profile, Options{Parallelism: 8}, 1)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, seq, par, fmt.Sprintf("seed %d", seed))
	}
}

func TestStratifyNegativeParallelismRejected(t *testing.T) {
	profile := synthProfile(1, 2, 5)
	if _, err := StratifyContext(context.Background(), profile, Options{Parallelism: -1}); err == nil {
		t.Fatal("want error for negative parallelism")
	}
}

// TestStratifyDefaultWorkGate pins where StratifyContext starts the worker
// pool, as its core.stratify span reports it: inline one row under
// minParallelRows, on more than one worker at minParallelRows.
func TestStratifyDefaultWorkGate(t *testing.T) {
	profile := synthProfile(31, 40, 200)
	if len(profile) < minParallelRows {
		t.Fatalf("fixture has %d rows, want at least %d", len(profile), minParallelRows)
	}
	for _, tc := range []struct {
		rows int
		pool bool
	}{{minParallelRows - 1, false}, {minParallelRows, true}} {
		c := obs.New()
		ctx := obs.WithCollector(context.Background(), c)
		if _, err := StratifyContext(ctx, profile[:tc.rows], Options{Parallelism: 2}); err != nil {
			t.Fatal(err)
		}
		sp := c.Report().Find("core.stratify")
		if sp == nil {
			t.Fatal("no core.stratify span")
		}
		workers, _ := sp.Attrs["workers"].(int)
		if pooled := workers > 1; pooled != tc.pool {
			t.Errorf("%d rows: %d workers, want pool %v", tc.rows, workers, tc.pool)
		}
	}
}

// TestStratifyWorkGateMatchesForcedPool proves the work-size gate is purely
// a scheduling decision: routing a profile inline (the default threshold)
// and forcing it onto the pool (threshold 1) produce identical plans.
func TestStratifyWorkGateMatchesForcedPool(t *testing.T) {
	profile := synthProfile(21, 18, 60)
	inline, err := StratifyContext(context.Background(), profile, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := stratify(context.Background(), profile, Options{Parallelism: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, inline, pooled, "work gate")
}

// TestStratifyParallelErrorDeterministic checks that the first-by-kernel-order
// error wins regardless of which worker fails first.
func TestStratifyParallelErrorDeterministic(t *testing.T) {
	profile := synthProfile(7, 6, 20)
	// A negative theta is caught in validation; instead force a kernel error
	// path is not reachable via public input validation (bad rows are caught
	// up front), so assert validation errors are identical at any
	// parallelism instead.
	profile[3].InstructionCount = -1
	var msgs []string
	for _, workers := range []int{1, 8} {
		_, err := StratifyContext(context.Background(), profile, Options{Parallelism: workers})
		if err == nil {
			t.Fatal("want validation error")
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("error diverges: %q vs %q", msgs[0], msgs[1])
	}
}
