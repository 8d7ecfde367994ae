package pks

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/gpusampling/sieve/internal/cudamodel"
)

// syntheticProfile builds nKernels kernels × perKernel invocations with
// distinct feature scales per kernel and golden cycles proportional to a
// per-kernel CPI.
func syntheticProfile(nKernels, perKernel int, seed int64) (features [][]float64, golden []float64) {
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < nKernels; k++ {
		instr := 1000 * math.Pow(10, float64(k))
		cpi := 1 + rng.Float64()*3
		for j := 0; j < perKernel; j++ {
			c := cudamodel.Characteristics{
				CoalescedGlobalLoads: instr * 0.01,
				ThreadGlobalLoads:    instr * 0.1,
				InstructionCount:     instr * (1 + 0.01*rng.NormFloat64()),
				DivergenceEfficiency: 0.9,
				ThreadBlocks:         instr / 1000,
			}
			features = append(features, c.Vector())
			golden = append(golden, cpi*c.InstructionCount)
		}
	}
	return features, golden
}

func TestOptionsValidation(t *testing.T) {
	f, g := syntheticProfile(2, 3, 1)
	cases := []struct {
		name string
		opts Options
	}{
		{"negative MaxK", Options{MaxK: -1}},
		{"bad policy", Options{Selection: Policy(99)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := SelectContext(context.Background(), f, g, c.opts); err == nil {
				t.Fatal("want error")
			}
		})
	}
	if _, err := SelectContext(context.Background(), nil, nil, Options{}); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := SelectContext(context.Background(), f, g[:1], Options{}); err == nil {
		t.Fatal("want error for length mismatch")
	}
	g[0] = 0
	if _, err := SelectContext(context.Background(), f, g, Options{}); err == nil {
		t.Fatal("want error for non-positive golden cycles")
	}
}

func TestPolicyString(t *testing.T) {
	if SelectFirst.String() != "first-chronological" || SelectRandom.String() != "random" ||
		SelectCentroid.String() != "centroid" {
		t.Fatal("policy strings")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatal("unknown policy string")
	}
}

func TestSelectPartitionsInvocations(t *testing.T) {
	f, g := syntheticProfile(4, 25, 2)
	res, err := SelectContext(context.Background(), f, g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 1 || res.K > DefaultMaxK {
		t.Fatalf("K = %d", res.K)
	}
	seen := make(map[int]bool)
	for ci, c := range res.Clusters {
		if c.Size() == 0 {
			t.Fatalf("cluster %d empty", ci)
		}
		repMember := false
		for i := 1; i < len(c.Invocations); i++ {
			if c.Invocations[i] <= c.Invocations[i-1] {
				t.Fatal("cluster members out of chronological order")
			}
		}
		for _, idx := range c.Invocations {
			if seen[idx] {
				t.Fatalf("invocation %d in two clusters", idx)
			}
			seen[idx] = true
			if res.Assignments[idx] != ci {
				t.Fatal("assignment inconsistent with cluster membership")
			}
			if idx == c.Representative {
				repMember = true
			}
		}
		if !repMember {
			t.Fatal("representative not a member of its cluster")
		}
	}
	if len(seen) != len(f) {
		t.Fatalf("clusters cover %d of %d invocations", len(seen), len(f))
	}
}

func TestSelectFirstPicksEarliest(t *testing.T) {
	f, g := syntheticProfile(3, 10, 3)
	res, err := SelectContext(context.Background(), f, g, Options{Selection: SelectFirst, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if c.Representative != c.Invocations[0] {
			t.Fatalf("first policy picked %d, earliest member is %d", c.Representative, c.Invocations[0])
		}
	}
}

func TestSelectDeterministicForSeed(t *testing.T) {
	f, g := syntheticProfile(3, 20, 4)
	a, err := SelectContext(context.Background(), f, g, Options{Seed: 42, Selection: SelectRandom})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectContext(context.Background(), f, g, Options{Seed: 42, Selection: SelectRandom})
	if err != nil {
		t.Fatal(err)
	}
	if a.K != b.K {
		t.Fatal("nondeterministic K")
	}
	for i := range a.Clusters {
		if a.Clusters[i].Representative != b.Clusters[i].Representative {
			t.Fatal("nondeterministic representative")
		}
	}
}

func TestKSelectionUsesGoldenReference(t *testing.T) {
	// With well-separated per-kernel scales and per-kernel constant CPI,
	// enough clusters make the prediction near-exact; PKS must find a k
	// with small error.
	f, g := syntheticProfile(4, 30, 6)
	res, err := SelectContext(context.Background(), f, g, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.KSelectionError > 0.05 {
		t.Fatalf("k-selection error %g, want < 5%% on separable data", res.KSelectionError)
	}
	if res.K < 2 {
		t.Fatalf("separable 4-kernel data should need ≥ 2 clusters, got %d", res.K)
	}
}

func TestSubsamplingStillCoversAllInvocations(t *testing.T) {
	f, g := syntheticProfile(4, 500, 10) // 2000 invocations
	res, err := SelectContext(context.Background(), f, g, Options{Seed: 3, ClusterSampleCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, c := range res.Clusters {
		covered += c.Size()
	}
	if covered != len(f) {
		t.Fatalf("subsampled run covers %d of %d invocations", covered, len(f))
	}
}

func TestSingleInvocation(t *testing.T) {
	f, g := syntheticProfile(1, 1, 12)
	res, err := SelectContext(context.Background(), f, g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 || res.Clusters[0].Representative != 0 {
		t.Fatalf("single-invocation result = %+v", res)
	}
	if res.KSelectionError > 1e-12 {
		t.Fatalf("single invocation should predict exactly, err %g", res.KSelectionError)
	}
}

func TestCentroidPolicyPicksCentralMember(t *testing.T) {
	// One tight cluster on a line: centroid member of {0, 10, 20} is 10.
	features := [][]float64{
		make12(0), make12(10), make12(20),
	}
	golden := []float64{100, 100, 100}
	res, err := SelectContext(context.Background(), features, golden, Options{Seed: 7, MaxK: 1, Selection: SelectCentroid})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 {
		t.Fatalf("K = %d", res.K)
	}
	if res.Clusters[0].Representative != 1 {
		t.Fatalf("centroid policy picked %d, want 1", res.Clusters[0].Representative)
	}
}

func make12(v float64) []float64 {
	out := make([]float64, cudamodel.NumCharacteristics)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestHierarchicalClusteringOption(t *testing.T) {
	f, g := syntheticProfile(4, 40, 21)
	res, err := SelectContext(context.Background(), f, g, Options{Seed: 3, Clustering: AlgoHierarchical})
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 2 {
		t.Fatalf("separable data should need ≥ 2 clusters, got %d", res.K)
	}
	covered := 0
	for _, c := range res.Clusters {
		covered += c.Size()
	}
	if covered != len(f) {
		t.Fatalf("clusters cover %d of %d", covered, len(f))
	}
	// On cleanly separable data, hierarchical clustering should also find a
	// low-distortion cut.
	if res.KSelectionError > 0.1 {
		t.Fatalf("hierarchical distortion %g on separable data", res.KSelectionError)
	}
}

func TestHierarchicalSampleCapEnforced(t *testing.T) {
	f, g := syntheticProfile(3, 400, 22) // 1200 invocations
	res, err := SelectContext(context.Background(), f, g, Options{Seed: 4, Clustering: AlgoHierarchical})
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, c := range res.Clusters {
		covered += c.Size()
	}
	if covered != len(f) {
		t.Fatalf("subsampled hierarchical run covers %d of %d", covered, len(f))
	}
}

func TestClusteringAlgoString(t *testing.T) {
	if AlgoKMeans.String() != "kmeans" || AlgoHierarchical.String() != "hierarchical" {
		t.Fatal("algo strings")
	}
	if ClusteringAlgo(9).String() != "ClusteringAlgo(9)" {
		t.Fatal("unknown algo string")
	}
	if _, err := SelectContext(context.Background(), [][]float64{make12(1)}, []float64{1}, Options{Clustering: ClusteringAlgo(9)}); err == nil {
		t.Fatal("want error for unknown clustering algorithm")
	}
}
