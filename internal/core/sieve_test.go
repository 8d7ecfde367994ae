package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gpusampling/sieve/internal/stats"
)

// profileOf builds a profile from (kernel, instr, cta) triples in
// chronological order.
func profileOf(rows ...[3]interface{}) []InvocationProfile {
	out := make([]InvocationProfile, len(rows))
	for i, r := range rows {
		out[i] = InvocationProfile{
			Kernel:           r[0].(string),
			Index:            i,
			InstructionCount: r[1].(float64),
			CTASize:          r[2].(int),
		}
	}
	return out
}

func TestTierAndPolicyStrings(t *testing.T) {
	if Tier1.String() != "Tier-1" || Tier2.String() != "Tier-2" || Tier3.String() != "Tier-3" {
		t.Fatal("tier strings")
	}
	if Tier(9).String() != "Tier(9)" {
		t.Fatal("unknown tier string")
	}
	if SelectDominantCTAFirst.String() != "dominant-cta-first" ||
		SelectFirstChronological.String() != "first-chronological" ||
		SelectMaxCTA.String() != "max-cta" {
		t.Fatal("policy strings")
	}
	if SelectionPolicy(9).String() != "SelectionPolicy(9)" {
		t.Fatal("unknown policy string")
	}
	if SplitKDE.String() != "kde" || SplitEqualWidth.String() != "equal-width" {
		t.Fatal("splitter strings")
	}
	if Splitter(9).String() != "Splitter(9)" {
		t.Fatal("unknown splitter string")
	}
}

func TestStratifyValidation(t *testing.T) {
	if _, err := StratifyContext(context.Background(), nil, Options{}); err == nil {
		t.Fatal("want error for empty profile")
	}
	bad := []InvocationProfile{{Kernel: "", Index: 0, InstructionCount: 1, CTASize: 32}}
	if _, err := StratifyContext(context.Background(), bad, Options{}); err == nil {
		t.Fatal("want error for missing kernel name")
	}
	bad[0].Kernel = "k"
	bad[0].InstructionCount = 0
	if _, err := StratifyContext(context.Background(), bad, Options{}); err == nil {
		t.Fatal("want error for zero instruction count")
	}
	bad[0].InstructionCount = 1
	bad[0].CTASize = 0
	if _, err := StratifyContext(context.Background(), bad, Options{}); err == nil {
		t.Fatal("want error for zero CTA size")
	}
	dup := profileOf([3]interface{}{"k", 1.0, 32}, [3]interface{}{"k", 2.0, 32})
	dup[1].Index = 0
	if _, err := StratifyContext(context.Background(), dup, Options{}); err == nil {
		t.Fatal("want error for duplicate index")
	}
	if _, err := StratifyContext(context.Background(), profileOf([3]interface{}{"k", 1.0, 32}), Options{Theta: -1}); err == nil {
		t.Fatal("want error for negative theta")
	}
	if _, err := StratifyContext(context.Background(), profileOf([3]interface{}{"k", 1.0, 32}), Options{Selection: SelectionPolicy(99)}); err == nil {
		t.Fatal("want error for unknown policy")
	}
	if _, err := StratifyContext(context.Background(), profileOf([3]interface{}{"k", 1.0, 32}), Options{Tier3Splitter: Splitter(99)}); err == nil {
		t.Fatal("want error for unknown splitter")
	}
}

func TestTier1ConstantKernel(t *testing.T) {
	p := profileOf(
		[3]interface{}{"k", 100.0, 128},
		[3]interface{}{"k", 100.0, 256},
		[3]interface{}{"k", 100.0, 128},
	)
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strata) != 1 {
		t.Fatalf("strata = %d, want 1", len(res.Strata))
	}
	s := res.Strata[0]
	if s.Tier != Tier1 {
		t.Fatalf("tier = %v", s.Tier)
	}
	if s.Representative != 0 {
		t.Fatalf("Tier-1 representative = %d, want first-chronological 0", s.Representative)
	}
	if s.Weight != 1 {
		t.Fatalf("weight = %g", s.Weight)
	}
	if res.TierInvocations != [3]int{3, 0, 0} {
		t.Fatalf("tier counts = %v", res.TierInvocations)
	}
}

func TestTier2LowVariabilityKernel(t *testing.T) {
	// CoV of {95, 100, 105} ≈ 0.041 < 0.4 → single Tier-2 stratum.
	p := profileOf(
		[3]interface{}{"k", 95.0, 128},
		[3]interface{}{"k", 100.0, 256},
		[3]interface{}{"k", 105.0, 256},
	)
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strata) != 1 || res.Strata[0].Tier != Tier2 {
		t.Fatalf("strata = %+v", res.Strata)
	}
	// Dominant CTA is 256 (2 of 3); first-chronological with 256 is index 1.
	if res.Strata[0].Representative != 1 {
		t.Fatalf("representative = %d, want 1 (first with dominant CTA)", res.Strata[0].Representative)
	}
	if res.TierInvocations != [3]int{0, 3, 0} {
		t.Fatalf("tier counts = %v", res.TierInvocations)
	}
}

func TestTier3KernelSplitsIntoTightStrata(t *testing.T) {
	// Bimodal kernel: counts around 100 and around 10000.
	var rows [][3]interface{}
	for i := 0; i < 50; i++ {
		rows = append(rows, [3]interface{}{"k", 100.0 + float64(i%3), 128})
		rows = append(rows, [3]interface{}{"k", 10000.0 + float64(i%5), 128})
	}
	res, err := StratifyContext(context.Background(), profileOf(rows...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strata) < 2 {
		t.Fatalf("bimodal kernel produced %d strata", len(res.Strata))
	}
	if res.TierInvocations[2] != 100 {
		t.Fatalf("tier counts = %v", res.TierInvocations)
	}
	total := 0
	for _, s := range res.Strata {
		if s.Tier != Tier3 {
			t.Fatalf("stratum tier = %v", s.Tier)
		}
		total += len(s.Invocations)
		// Members must be homogeneous: CoV below θ.
		var counts []float64
		for _, idx := range s.Invocations {
			counts = append(counts, res.byIndex[idx].InstructionCount)
		}
		if cov := stats.CoV(counts); cov >= 0.4 {
			t.Fatalf("stratum CoV %g ≥ θ", cov)
		}
		// Chronological member order.
		for i := 1; i < len(s.Invocations); i++ {
			if s.Invocations[i] <= s.Invocations[i-1] {
				t.Fatal("stratum members out of chronological order")
			}
		}
	}
	if total != 100 {
		t.Fatalf("strata cover %d invocations, want 100", total)
	}
}

func TestWeightsSumToOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nKernels := 1 + rng.Intn(6)
		var profile []InvocationProfile
		idx := 0
		for k := 0; k < nKernels; k++ {
			n := 1 + rng.Intn(40)
			base := 100 * math.Pow(10, rng.Float64()*3)
			mode := rng.Intn(3)
			for j := 0; j < n; j++ {
				instr := base
				switch mode {
				case 1:
					instr *= 1 + 0.1*rng.NormFloat64()
				case 2:
					instr *= math.Pow(4, float64(rng.Intn(3))) * (1 + 0.02*rng.NormFloat64())
				}
				if instr < 1 {
					instr = 1
				}
				profile = append(profile, InvocationProfile{
					Kernel:           fmt.Sprintf("k%d", k),
					Index:            idx,
					InstructionCount: instr,
					CTASize:          64 << rng.Intn(4),
				})
				idx++
			}
		}
		res, err := StratifyContext(context.Background(), profile, Options{})
		if err != nil {
			return false
		}
		// Invariants: weights sum to 1; every invocation in exactly one
		// stratum; representative is a member of its stratum; tier counts
		// cover everything.
		var wsum float64
		seen := make(map[int]bool)
		for _, s := range res.Strata {
			wsum += s.Weight
			repOK := false
			for _, i := range s.Invocations {
				if seen[i] {
					return false
				}
				seen[i] = true
				if i == s.Representative {
					repOK = true
				}
			}
			if !repOK {
				return false
			}
		}
		if len(seen) != len(profile) {
			return false
		}
		if math.Abs(wsum-1) > 1e-9 {
			return false
		}
		if res.TierInvocations[0]+res.TierInvocations[1]+res.TierInvocations[2] != len(profile) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestThetaMonotonicity(t *testing.T) {
	// Lowering θ cannot decrease the number of strata, and Tier-3
	// invocation share cannot shrink.
	rng := rand.New(rand.NewSource(31))
	var rows [][3]interface{}
	for k := 0; k < 5; k++ {
		base := 1000.0 * float64(k+1)
		for j := 0; j < 60; j++ {
			rows = append(rows, [3]interface{}{
				fmt.Sprintf("k%d", k),
				base * (1 + 0.5*rng.NormFloat64()*float64(k)/4) * math.Pow(2, float64(rng.Intn(k+1))),
				128,
			})
		}
	}
	for i := range rows {
		if rows[i][1].(float64) < 1 {
			rows[i][1] = 1.0
		}
	}
	p := profileOf(rows...)
	prevStrata := -1
	prevT3 := math.MaxInt
	for _, theta := range []float64{1.0, 0.5, 0.1} {
		res, err := StratifyContext(context.Background(), p, Options{Theta: theta})
		if err != nil {
			t.Fatal(err)
		}
		if prevStrata >= 0 && res.NumStrata() < prevStrata {
			t.Fatalf("θ=%g produced fewer strata (%d) than looser θ (%d)", theta, res.NumStrata(), prevStrata)
		}
		if res.TierInvocations[2] < prevT3 && prevT3 != math.MaxInt {
			t.Fatalf("θ=%g shrank Tier-3 share", theta)
		}
		prevStrata = res.NumStrata()
		prevT3 = res.TierInvocations[2]
	}
}

func TestSelectionPolicies(t *testing.T) {
	p := profileOf(
		[3]interface{}{"k", 90.0, 128},
		[3]interface{}{"k", 110.0, 512},
		[3]interface{}{"k", 100.0, 256},
		[3]interface{}{"k", 101.0, 256},
	)
	// first-chronological → index 0.
	res, err := StratifyContext(context.Background(), p, Options{Selection: SelectFirstChronological})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strata[0].Representative != 0 {
		t.Fatalf("first-chronological rep = %d", res.Strata[0].Representative)
	}
	// dominant CTA (256, twice) → first with 256 is index 2.
	res, err = StratifyContext(context.Background(), p, Options{Selection: SelectDominantCTAFirst})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strata[0].Representative != 2 {
		t.Fatalf("dominant-cta rep = %d", res.Strata[0].Representative)
	}
	// max CTA (512) → index 1.
	res, err = StratifyContext(context.Background(), p, Options{Selection: SelectMaxCTA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strata[0].Representative != 1 {
		t.Fatalf("max-cta rep = %d", res.Strata[0].Representative)
	}
}

func TestSingleInvocationKernel(t *testing.T) {
	p := profileOf([3]interface{}{"solo", 1234.0, 64})
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strata) != 1 || res.Strata[0].Tier != Tier1 || res.Strata[0].Representative != 0 {
		t.Fatalf("solo kernel strata = %+v", res.Strata)
	}
}

func TestMultipleKernelsNeverShareStrata(t *testing.T) {
	// Sieve must never merge invocations of different kernels (Section III-E)
	// even when counts are identical — the defining contrast with PKS.
	p := profileOf(
		[3]interface{}{"a", 100.0, 128},
		[3]interface{}{"b", 100.0, 128},
		[3]interface{}{"a", 100.0, 128},
		[3]interface{}{"b", 100.0, 128},
	)
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strata) != 2 {
		t.Fatalf("strata = %d, want one per kernel", len(res.Strata))
	}
	for _, s := range res.Strata {
		for _, idx := range s.Invocations {
			if res.byIndex[idx].Kernel != s.Kernel {
				t.Fatal("stratum mixes kernels")
			}
		}
	}
}

func TestEqualWidthSplitterAlsoSatisfiesCoV(t *testing.T) {
	var rows [][3]interface{}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		mode := math.Pow(8, float64(rng.Intn(3)))
		rows = append(rows, [3]interface{}{"k", 1000 * mode * (1 + 0.03*rng.NormFloat64()), 128})
	}
	res, err := StratifyContext(context.Background(), profileOf(rows...), Options{Tier3Splitter: SplitEqualWidth})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Strata {
		total += len(s.Invocations)
		var counts []float64
		for _, idx := range s.Invocations {
			counts = append(counts, res.byIndex[idx].InstructionCount)
		}
		if len(counts) > 1 && stats.CoV(counts) >= 0.4 {
			t.Fatalf("equal-width stratum CoV %g ≥ θ", stats.CoV(counts))
		}
	}
	if total != 200 {
		t.Fatalf("equal-width split lost invocations: %d", total)
	}
}

func TestDefaultThetaApplied(t *testing.T) {
	p := profileOf([3]interface{}{"k", 1.0, 32})
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta != DefaultTheta {
		t.Fatalf("theta = %g, want default %g", res.Theta, DefaultTheta)
	}
}

func TestGMMSplitterAlsoSatisfiesCoV(t *testing.T) {
	var rows [][3]interface{}
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 200; i++ {
		mode := math.Pow(8, float64(rng.Intn(3)))
		rows = append(rows, [3]interface{}{"k", 1000 * mode * (1 + 0.03*rng.NormFloat64()), 128})
	}
	res, err := StratifyContext(context.Background(), profileOf(rows...), Options{Tier3Splitter: SplitGMM})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Strata {
		total += len(s.Invocations)
		var counts []float64
		for _, idx := range s.Invocations {
			counts = append(counts, res.byIndex[idx].InstructionCount)
		}
		if len(counts) > 1 && stats.CoV(counts) >= 0.4 {
			t.Fatalf("gmm stratum CoV %g ≥ θ", stats.CoV(counts))
		}
	}
	if total != 200 {
		t.Fatalf("gmm split lost invocations: %d", total)
	}
}
