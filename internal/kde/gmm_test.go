package kde

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitMixtureValidation(t *testing.T) {
	if _, err := FitMixture(nil, 1); err == nil {
		t.Fatal("want error for empty sample")
	}
	if _, err := FitMixture([]float64{1, 2}, 0); err == nil {
		t.Fatal("want error for zero components")
	}
	if _, err := FitMixture([]float64{1, 2}, 3); err == nil {
		t.Fatal("want error for k > n")
	}
}

func TestFitMixtureSingleComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 100 + rng.NormFloat64()*5
	}
	m, err := FitMixture(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 1 {
		t.Fatalf("K = %d", m.K())
	}
	if math.Abs(m.Means[0]-100) > 1 {
		t.Fatalf("mean = %g, want ≈100", m.Means[0])
	}
	if math.Abs(m.StdDevs[0]-5) > 1 {
		t.Fatalf("sd = %g, want ≈5", m.StdDevs[0])
	}
	if math.Abs(m.Weights[0]-1) > 1e-9 {
		t.Fatalf("weight = %g", m.Weights[0])
	}
}

func TestFitMixtureRecoversTwoComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var xs []float64
	for i := 0; i < 300; i++ {
		xs = append(xs, 100+rng.NormFloat64()*3)
	}
	for i := 0; i < 100; i++ {
		xs = append(xs, 1000+rng.NormFloat64()*30)
	}
	m, err := FitMixture(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Components come back sorted by mean.
	if math.Abs(m.Means[0]-100) > 5 || math.Abs(m.Means[1]-1000) > 50 {
		t.Fatalf("means = %v", m.Means)
	}
	if math.Abs(m.Weights[0]-0.75) > 0.05 || math.Abs(m.Weights[1]-0.25) > 0.05 {
		t.Fatalf("weights = %v", m.Weights)
	}
	// Assignment separates the modes.
	if m.Assign(100) == m.Assign(1000) {
		t.Fatal("modes share a component")
	}
}

func TestFitMixtureDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(1+i%4)*100 + rng.NormFloat64()
	}
	a, err := FitMixture(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitMixture(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		if a.Means[c] != b.Means[c] || a.Weights[c] != b.Weights[c] {
			t.Fatal("nondeterministic fit")
		}
	}
}

func TestFitMixtureDegenerateConstantSample(t *testing.T) {
	xs := []float64{7, 7, 7, 7}
	m, err := FitMixture(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range m.StdDevs {
		if sd <= 0 || math.IsNaN(sd) {
			t.Fatalf("degenerate sd %g", sd)
		}
	}
}

func TestSplitUnderCoVGMMHomogeneous(t *testing.T) {
	groups, err := SplitUnderCoVGMMContext(context.Background(), []float64{100, 101, 99}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestSplitUnderCoVGMMBimodal(t *testing.T) {
	var xs []float64
	for i := 0; i < 100; i++ {
		xs = append(xs, 100+float64(i%3))
		xs = append(xs, 10000+float64(i%5))
	}
	groups, err := SplitUnderCoVGMMContext(context.Background(), xs, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 2 {
		t.Fatalf("bimodal sample not split: %d groups", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += len(g)
		if len(g) > 1 && covOf(g) >= 0.4 {
			t.Fatalf("group CoV %g ≥ threshold", covOf(g))
		}
	}
	if total != len(xs) {
		t.Fatalf("samples lost: %d of %d", total, len(xs))
	}
}

func TestSplitUnderCoVGMMErrors(t *testing.T) {
	if _, err := SplitUnderCoVGMMContext(context.Background(), nil, 0.4); err == nil {
		t.Fatal("want error for empty sample")
	}
	if _, err := SplitUnderCoVGMMContext(context.Background(), []float64{1}, 0); err == nil {
		t.Fatal("want error for non-positive threshold")
	}
}

func TestSplitUnderCoVGMMProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			mode := float64(1+rng.Intn(3)) * 1000
			xs[i] = mode + rng.NormFloat64()*mode*0.02
			if xs[i] < 1 {
				xs[i] = 1
			}
		}
		groups, err := SplitUnderCoVGMMContext(context.Background(), xs, 0.4)
		if err != nil {
			return false
		}
		total := 0
		prevMax := math.Inf(-1)
		for _, g := range groups {
			if len(g) == 0 {
				return false
			}
			total += len(g)
			// Ascending partition.
			if g[0] < prevMax {
				return false
			}
			prevMax = g[len(g)-1]
			if len(g) > 1 && covOf(g) >= 0.4 {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
