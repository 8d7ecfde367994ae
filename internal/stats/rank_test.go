package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRanksBasics(t *testing.T) {
	got := Ranks([]float64{30, 10, 20})
	want := []float64{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v", got)
		}
	}
	// Ties share the average rank.
	got = Ranks([]float64{5, 5, 1})
	if got[0] != 2.5 || got[1] != 2.5 || got[2] != 1 {
		t.Fatalf("tied Ranks = %v", got)
	}
	if len(Ranks(nil)) != 0 {
		t.Fatal("empty Ranks")
	}
}

func TestSpearmanKnown(t *testing.T) {
	got, err := Spearman([]float64{1, 2, 3}, []float64{10, 20, 30})
	if err != nil || got != 1 {
		t.Fatalf("monotone Spearman = %g, %v", got, err)
	}
	got, err = Spearman([]float64{1, 2, 3}, []float64{30, 20, 10})
	if err != nil || got != -1 {
		t.Fatalf("inverted Spearman = %g, %v", got, err)
	}
	got, err = Spearman([]float64{5}, []float64{7})
	if err != nil || got != 1 {
		t.Fatalf("singleton Spearman = %g, %v", got, err)
	}
	got, err = Spearman([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || got != 1 {
		t.Fatalf("constant-side Spearman = %g, %v", got, err)
	}
	if _, err := Spearman([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want error for mismatched lengths")
	}
}

func TestSpearmanBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		rho, err := Spearman(a, b)
		if err != nil {
			return false
		}
		return rho >= -1-1e-9 && rho <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanInvariantUnderMonotoneTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = a[i]*2 + rng.NormFloat64()*0.5
	}
	before, err := Spearman(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Apply a strictly increasing nonlinear transform to one side: ranks
	// (and thus Spearman) are unchanged.
	bt := make([]float64, len(b))
	for i, v := range b {
		bt[i] = math.Exp(v)
	}
	after, err := Spearman(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(before-after) > 1e-12 {
		t.Fatalf("Spearman changed under monotone transform: %g vs %g", before, after)
	}
}
