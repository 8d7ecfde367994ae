package core

import (
	"context"
	"testing"
)

func TestErrorBoundTier1IsZero(t *testing.T) {
	// Constant kernels have zero within-stratum dispersion: the bound is 0.
	p := profileOf(
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"a", 100.0, 64},
		[3]interface{}{"b", 500.0, 64},
		[3]interface{}{"b", 500.0, 64},
	)
	res, err := StratifyContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := res.EstimateErrorBound()
	if err != nil {
		t.Fatal(err)
	}
	if bound.RelativeStdDev != 0 || bound.TwoSigma != 0 {
		t.Fatalf("constant strata bound = %+v, want 0", bound)
	}
}

func TestErrorBoundGrowsWithDispersion(t *testing.T) {
	tight := profileOf(
		[3]interface{}{"k", 100.0, 64},
		[3]interface{}{"k", 101.0, 64},
		[3]interface{}{"k", 99.0, 64},
		[3]interface{}{"k", 100.0, 64},
	)
	loose := profileOf(
		[3]interface{}{"k", 100.0, 64},
		[3]interface{}{"k", 130.0, 64},
		[3]interface{}{"k", 70.0, 64},
		[3]interface{}{"k", 100.0, 64},
	)
	tr, err := StratifyContext(context.Background(), tight, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := StratifyContext(context.Background(), loose, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := tr.EstimateErrorBound()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := lr.EstimateErrorBound()
	if err != nil {
		t.Fatal(err)
	}
	if lb.RelativeStdDev <= tb.RelativeStdDev {
		t.Fatalf("looser strata should bound higher: %g vs %g", lb.RelativeStdDev, tb.RelativeStdDev)
	}
	if lb.TwoSigma != 2*lb.RelativeStdDev {
		t.Fatal("TwoSigma must be 2x the std dev")
	}
	if lb.WorstStratum != "k" {
		t.Fatalf("worst stratum = %q", lb.WorstStratum)
	}
	if lb.WorstContribution < 0.99 {
		t.Fatalf("single dispersive stratum should own the variance: %g", lb.WorstContribution)
	}
}

func TestErrorBoundEmptyResult(t *testing.T) {
	empty := &Result{}
	if _, err := empty.EstimateErrorBound(); err == nil {
		t.Fatal("want error for empty result")
	}
}

func TestErrorBoundTracksObservedErrorOrder(t *testing.T) {
	// The heuristic should at least order plans correctly: the tighter the
	// θ, the smaller the bound.
	var rows [][3]interface{}
	for k := 0; k < 6; k++ {
		base := 1000.0 * float64(k+1)
		for j := 0; j < 50; j++ {
			spread := 1 + 0.35*float64(j%5-2)/2
			rows = append(rows, [3]interface{}{kernelName(k), base * spread, 128})
		}
	}
	p := profileOf(rows...)
	prev := -1.0
	for _, theta := range []float64{0.1, 0.4, 1.0} {
		res, err := StratifyContext(context.Background(), p, Options{Theta: theta})
		if err != nil {
			t.Fatal(err)
		}
		bound, err := res.EstimateErrorBound()
		if err != nil {
			t.Fatal(err)
		}
		if bound.RelativeStdDev < prev-1e-12 {
			t.Fatalf("bound should not shrink as θ loosens: %g after %g", bound.RelativeStdDev, prev)
		}
		prev = bound.RelativeStdDev
	}
}

func kernelName(k int) string {
	return string(rune('a' + k))
}
