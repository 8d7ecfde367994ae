package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

// constantCPI returns a CycleSource where cycles = cpi × instructions of the
// representative, looked up in the profile.
func constantCPI(profile []InvocationProfile, cpi float64) CycleSource {
	byIdx := make(map[int]float64)
	for _, p := range profile {
		byIdx[p.Index] = p.InstructionCount
	}
	return func(i int) (float64, error) {
		instr, ok := byIdx[i]
		if !ok {
			return 0, fmt.Errorf("unknown invocation %d", i)
		}
		return cpi * instr, nil
	}
}

func TestPredictExactWhenCPIUniform(t *testing.T) {
	// When every invocation has the same CPI, the prediction must be exact:
	// predicted cycles = CPI × total instructions.
	p := profileOf(
		[3]interface{}{"a", 100.0, 128},
		[3]interface{}{"a", 100.0, 128},
		[3]interface{}{"b", 5000.0, 256},
		[3]interface{}{"b", 5200.0, 256},
		[3]interface{}{"b", 4800.0, 256},
	)
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const cpi = 2.5
	pred, err := res.Predict(constantCPI(p, cpi))
	if err != nil {
		t.Fatal(err)
	}
	wantCycles := cpi * res.TotalInstructions
	if math.Abs(pred.Cycles-wantCycles) > 1e-9*wantCycles {
		t.Fatalf("Cycles = %g, want %g", pred.Cycles, wantCycles)
	}
	if math.Abs(pred.IPC-1/cpi) > 1e-12 {
		t.Fatalf("IPC = %g, want %g", pred.IPC, 1/cpi)
	}
	if pred.RepresentativeCycles <= 0 || pred.RepresentativeCycles >= pred.Cycles {
		t.Fatalf("RepresentativeCycles = %g out of range", pred.RepresentativeCycles)
	}
}

func TestPredictWeightsByInstructionShare(t *testing.T) {
	// Kernel a: 10% of instructions at IPC 1. Kernel b: 90% at IPC 10.
	// Predicted cycles = 0.1·T/1 + 0.9·T/10 = 0.19·T.
	p := profileOf(
		[3]interface{}{"a", 100.0, 128},
		[3]interface{}{"b", 900.0, 128},
	)
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := func(i int) (float64, error) {
		switch i {
		case 0:
			return 100, nil // IPC 1
		case 1:
			return 90, nil // IPC 10
		}
		return 0, fmt.Errorf("unexpected index %d", i)
	}
	pred, err := res.Predict(src)
	if err != nil {
		t.Fatal(err)
	}
	if want := 190.0; math.Abs(pred.Cycles-want) > 1e-9 {
		t.Fatalf("Cycles = %g, want %g", pred.Cycles, want)
	}
}

func TestPredictErrors(t *testing.T) {
	p := profileOf([3]interface{}{"a", 100.0, 128})
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Predict(func(int) (float64, error) { return 0, nil }); err == nil {
		t.Fatal("want error for zero cycles")
	}
	if _, err := res.Predict(func(int) (float64, error) { return 0, fmt.Errorf("boom") }); err == nil {
		t.Fatal("want error from cycle source")
	}
	empty := &Result{}
	if _, err := empty.Predict(func(int) (float64, error) { return 1, nil }); err == nil {
		t.Fatal("want error for empty result")
	}
}

// countWeighted assembles a count-weighted plan (the PKS estimator) over
// four equal-instruction invocations: {0, 1, 2} represented by 0, and {3}.
func countWeighted(t *testing.T) *Result {
	t.Helper()
	p := profileOf(
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"a", 100.0, 64},
	)
	res, err := Assemble(p, []StratumSpec{
		{Kernel: "c0", Tier: Tier2, Members: []int{0, 1, 2}, Representative: 0},
		{Kernel: "c1", Tier: Tier1, Members: []int{3}, Representative: 3},
	}, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	res.CountWeighted = true
	return res
}

// TestPredictCountWeighted: a count-weighted plan predicts Σ stratum size ×
// representative cycles, whatever the instruction shares, and rejects the
// inputs the instruction-weighted estimator rejects.
func TestPredictCountWeighted(t *testing.T) {
	res := countWeighted(t)
	pred, err := res.Predict(func(i int) (float64, error) { return float64(100 * (i + 1)), nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*100.0 + 1*400.0; pred.Cycles != want {
		t.Fatalf("predicted %g, want %g", pred.Cycles, want)
	}
	if want := 100.0 + 400.0; pred.RepresentativeCycles != want {
		t.Fatalf("representative cycles %g, want %g", pred.RepresentativeCycles, want)
	}
	if _, err := res.Predict(func(int) (float64, error) { return 0, nil }); err == nil {
		t.Fatal("want error on zero cycles")
	}
	if _, err := res.Predict(func(int) (float64, error) { return 0, fmt.Errorf("x") }); err == nil {
		t.Fatal("want error from source")
	}
	empty := &Result{CountWeighted: true}
	if _, err := empty.Predict(func(int) (float64, error) { return 1, nil }); err == nil {
		t.Fatal("want error for empty plan")
	}
}

// TestCountWeightedSpeedupAndCoV: speedup and within-stratum dispersion read
// a count-weighted plan's membership the way they read a Sieve plan's.
func TestCountWeightedSpeedupAndCoV(t *testing.T) {
	res := countWeighted(t)
	sp, err := res.Speedup([]float64{10, 10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if sp != 2 {
		t.Fatalf("speedup = %g, want 2 (two representatives of four equals)", sp)
	}
	// Stratum {0, 1, 2} has cycles {10, 30, 20}: mean 20, population
	// standard deviation √(200/3). Stratum {3} adds zero dispersion, and
	// the strata weigh 3 and 1.
	cov, err := res.WeightedCycleCoV([]float64{10, 30, 20, 50})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * math.Sqrt(200.0/3) / 20 / 4; math.Abs(cov-want) > 1e-12 {
		t.Fatalf("weighted CoV = %g, want %g", cov, want)
	}
	if _, err := res.Speedup(nil); err == nil {
		t.Fatal("want error for short golden")
	}
	if _, err := res.WeightedCycleCoV(nil); err == nil {
		t.Fatal("want error for short golden")
	}
}

func TestRepresentativeIndicesSortedUnique(t *testing.T) {
	p := profileOf(
		[3]interface{}{"b", 10.0, 64},
		[3]interface{}{"a", 20.0, 64},
		[3]interface{}{"b", 10.0, 64},
		[3]interface{}{"c", 30.0, 64},
	)
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idxs := res.RepresentativeIndices()
	if len(idxs) != 3 {
		t.Fatalf("representatives = %v", idxs)
	}
	for i := 1; i < len(idxs); i++ {
		if idxs[i] <= idxs[i-1] {
			t.Fatalf("not sorted/unique: %v", idxs)
		}
	}
}

func TestSpeedup(t *testing.T) {
	p := profileOf(
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"a", 100.0, 64},
	)
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	golden := []float64{10, 10, 10, 10}
	sp, err := res.Speedup(golden)
	if err != nil {
		t.Fatal(err)
	}
	if sp != 4 {
		t.Fatalf("speedup = %g, want 4 (one rep of four equals)", sp)
	}
	if _, err := res.Speedup([]float64{1}); err == nil {
		t.Fatal("want error for short golden slice")
	}
}

func TestWeightedCycleCoV(t *testing.T) {
	p := profileOf(
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"b", 900.0, 64},
		[3]interface{}{"b", 900.0, 64},
	)
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Stratum a: cycles {10, 30} → CoV = 10/20 = 0.5. Stratum b: {50, 50} →
	// CoV 0. Weighted by 2 invocations each → 0.25.
	cov, err := res.WeightedCycleCoV([]float64{10, 30, 50, 50})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cov-0.25) > 1e-12 {
		t.Fatalf("weighted CoV = %g, want 0.25", cov)
	}
	if _, err := res.WeightedCycleCoV([]float64{1}); err == nil {
		t.Fatal("want error for short golden slice")
	}
}

func TestTierFractions(t *testing.T) {
	// Kernel a constant (Tier-1, 2 invocations), kernel b CoV ≈ 0.25
	// (Tier-2 at θ=0.5, Tier-3 at θ=0.1), 2 invocations.
	p := profileOf(
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"b", 100.0, 64},
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"b", 166.0, 64},
	)
	fr, err := TierFractions(p, []float64{0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr) != 2 {
		t.Fatalf("fractions = %v", fr)
	}
	// θ=0.1: a Tier-1 (0.5), b Tier-3 (0.5).
	if fr[0][0] != 0.5 || fr[0][2] != 0.5 {
		t.Fatalf("θ=0.1 fractions = %v", fr[0])
	}
	// θ=0.5: a Tier-1 (0.5), b Tier-2 (0.5).
	if fr[1][0] != 0.5 || fr[1][1] != 0.5 {
		t.Fatalf("θ=0.5 fractions = %v", fr[1])
	}
	for _, f := range fr {
		if math.Abs(f[0]+f[1]+f[2]-1) > 1e-12 {
			t.Fatalf("fractions don't sum to 1: %v", f)
		}
	}
}

func TestNumInvocationsAndStrata(t *testing.T) {
	p := profileOf(
		[3]interface{}{"a", 1.0, 64},
		[3]interface{}{"b", 2.0, 64},
		[3]interface{}{"a", 1.0, 64},
	)
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumStrata() != 2 || res.NumInvocations() != 3 {
		t.Fatalf("strata %d, invocations %d", res.NumStrata(), res.NumInvocations())
	}
}

// TestTierFractionsRejectsThetaZero is the regression test for the silent
// θ=0 remap: a Fig. 2-style sweep containing θ=0 used to run that entry at
// DefaultTheta and report the wrong tier mix. It must now fail loudly.
func TestTierFractionsRejectsThetaZero(t *testing.T) {
	p := profileOf(
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"a", 150.0, 64},
	)
	_, err := TierFractions(p, []float64{0.4, 0})
	if err == nil {
		t.Fatal("sweep with θ=0 must error, not silently run at DefaultTheta")
	}
	if want := "θ=0"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not identify the bad sweep entry", err)
	}
}

// TestThetaZeroExplicit covers the ThetaSet sentinel: the zero-value Options
// still select DefaultTheta, while an explicitly-set zero errors.
func TestThetaZeroExplicit(t *testing.T) {
	p := profileOf([3]interface{}{"a", 100.0, 64})
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta != DefaultTheta {
		t.Fatalf("zero-value options ran at θ=%g, want DefaultTheta", res.Theta)
	}
	if _, err := StratifyContext(context.Background(), p, Options{ThetaSet: true}); err == nil {
		t.Fatal("explicit θ=0 must error")
	}
	res, err = StratifyContext(context.Background(), p, Options{Theta: 0.3, ThetaSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta != 0.3 {
		t.Fatalf("explicit θ=0.3 ran at %g", res.Theta)
	}
}

// sparseProfile clones a dense profile onto offset, gappy invocation indices.
func sparseProfile(p []InvocationProfile, base, stride int) []InvocationProfile {
	out := append([]InvocationProfile(nil), p...)
	for i := range out {
		out[i].Index = base + stride*i
	}
	return out
}

// TestSpeedupSparseIndices is the regression test for golden-cycle
// mis-indexing: with offset indices, Speedup used to either reject a
// correct-length golden slice ("outside golden cycles") or, when the offset
// indices happened to stay in range, silently read the wrong invocation's
// cycles. goldenCycles is positional — entry i belongs to profile row i.
func TestSpeedupSparseIndices(t *testing.T) {
	dense := profileOf(
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"b", 900.0, 64},
		[3]interface{}{"b", 900.0, 64},
	)
	golden := []float64{10, 30, 50, 70}
	wantSp := func() float64 {
		res, err := StratifyContext(context.Background(), dense, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := res.Speedup(golden)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}()
	for _, c := range []struct {
		name         string
		base, stride int
	}{
		{"offset out of range", 1000, 1},
		{"sparse in range", 0, 2}, // indices 0,2,4,6 with 2 in range: silent wrong read before the fix
		{"offset in range", 1, 1}, // indices 1..4, three in range
	} {
		t.Run(c.name, func(t *testing.T) {
			sparse := sparseProfile(dense, c.base, c.stride)
			res, err := StratifyContext(context.Background(), sparse, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := res.Speedup(golden)
			if err != nil {
				t.Fatal(err)
			}
			if sp != wantSp {
				t.Fatalf("speedup %g, want %g", sp, wantSp)
			}
			cov, err := res.WeightedCycleCoV(golden)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, err := StratifyContext(context.Background(), dense, Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantCov, err := wantRes.WeightedCycleCoV(golden)
			if err != nil {
				t.Fatal(err)
			}
			if cov != wantCov {
				t.Fatalf("weighted CoV %g, want %g", cov, wantCov)
			}
		})
	}
	// A short golden slice still errors with a position-aware message.
	sparse := sparseProfile(dense, 1000, 1)
	res, err := StratifyContext(context.Background(), sparse, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Speedup(golden[:2]); err == nil {
		t.Fatal("want error for short golden slice")
	}
}
