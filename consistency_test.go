// Plan-stability guard for the binned KDE evaluator: the sampling plans the
// public API emits must be unchanged by the linear-binning optimization. The
// valley set is the only place binning could leak into a plan (everything
// downstream of splitting is deterministic), so for every Tier-3 kernel in
// every catalog workload this compares the stratification the production
// (binned) grid produces against the exact reference evaluator.
package sieve_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/internal/kde"
	"github.com/gpusampling/sieve/internal/stats"
)

func TestPlanValleysBinnedMatchExactAcrossWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and profiles the full workload catalog")
	}
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		t.Fatal(err)
	}
	tier3Kernels := 0
	for _, spec := range sieve.WorkloadCatalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			w, err := sieve.GenerateFromSpec(spec, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			profile, err := sieve.ProfileInstructionCounts(w, hw)
			if err != nil {
				t.Fatal(err)
			}
			byKernel := map[string][]float64{}
			for _, row := range sieve.ProfileRows(profile) {
				byKernel[row.Kernel] = append(byKernel[row.Kernel], row.InstructionCount)
			}
			for kernel, counts := range byKernel {
				if len(counts) < 2 || stats.CoV(counts) < sieve.DefaultTheta {
					continue // Tier-1/2: no KDE involved
				}
				tier3Kernels++
				assertBinnedSplitMatchesExact(t, fmt.Sprintf("%s/%s", spec.Name, kernel), counts)
			}
		})
	}
	if tier3Kernels == 0 {
		t.Fatal("catalog produced no Tier-3 kernels; the consistency sweep checked nothing")
	}
}

// assertBinnedSplitMatchesExact stratifies counts once via the production
// grid (binned where the bandwidth gate allows) and once via the exact
// reference evaluator, and requires identical strata — same group count,
// same group sizes, same members. Identical strata make every downstream
// plan quantity (representatives, weights, predictions) byte-identical.
func assertBinnedSplitMatchesExact(t *testing.T, label string, counts []float64) {
	t.Helper()
	sorted := append([]float64(nil), counts...)
	sort.Float64s(sorted)
	est, err := kde.NewSorted(sorted, 0)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	binnedValleys, err := est.ValleysContext(context.Background(), kde.DefaultGridPoints)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	xs, ds, err := est.GridExact(kde.DefaultGridPoints)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	exactValleys := kde.ValleysFromGrid(xs, ds)

	binned := kde.SplitAtValleys(counts, binnedValleys)
	exact := kde.SplitAtValleys(counts, exactValleys)
	if len(binned) != len(exact) {
		t.Fatalf("%s: binned grid yields %d strata, exact yields %d (valleys %v vs %v)",
			label, len(binned), len(exact), binnedValleys, exactValleys)
	}
	for i := range binned {
		if len(binned[i]) != len(exact[i]) {
			t.Fatalf("%s: stratum %d has %d members binned vs %d exact",
				label, i, len(binned[i]), len(exact[i]))
		}
		for j := range binned[i] {
			if binned[i][j] != exact[i][j] {
				t.Fatalf("%s: stratum %d member %d differs: %g vs %g",
					label, i, j, binned[i][j], exact[i][j])
			}
		}
	}
}
