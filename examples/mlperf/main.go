// MLPerf sampling study: run Sieve and the PKS baseline side by side on the
// MLPerf inference workloads — the paper's motivating scenario, where
// full-application simulation would take "a century" on current simulators —
// and compare prediction error, simulation speedup and profiling cost.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"github.com/gpusampling/sieve"
)

func main() {
	scale := flag.Float64("scale", 0.03, "workload scale factor in (0, 1]")
	flag.Parse()

	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		log.Fatal(err)
	}
	specs, err := sieve.WorkloadsBySuite(sieve.SuiteMLPerf)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-14s %12s %11s %11s %12s %12s %12s\n",
		"workload", "invocations", "Sieve err", "PKS err", "Sieve spdup", "PKS spdup", "prof spdup")
	var sieveSum, pksSum float64
	for _, spec := range specs {
		w, err := sieve.GenerateFromSpec(spec, *scale)
		if err != nil {
			log.Fatal(err)
		}
		golden := hw.MeasureWorkload(w)
		var total float64
		for _, c := range golden {
			total += c
		}
		at := func(i int) (float64, error) { return golden[i], nil }

		// Sieve: cheap single-metric profile, per-kernel stratification.
		icProfile, err := sieve.ProfileInstructionCounts(w, hw)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := sieve.Sample(sieve.ProfileRows(icProfile), sieve.Options{})
		if err != nil {
			log.Fatal(err)
		}
		sievePred, err := plan.Predict(at)
		if err != nil {
			log.Fatal(err)
		}
		sieveSpeedup, err := plan.Speedup(golden)
		if err != nil {
			log.Fatal(err)
		}

		// PKS: 12-metric profile, PCA + k-means with golden k-selection.
		fullProfile, err := sieve.ProfileFull(w, hw)
		if err != nil {
			log.Fatal(err)
		}
		pksPlan, err := sieve.SampleMethod("pks", &sieve.MethodProfile{
			Rows: sieve.ProfileRows(icProfile), Features: sieve.FeatureRows(fullProfile), GoldenCycles: golden,
		}, sieve.MethodOptions{PKS: sieve.PKSOptions{Seed: 1}})
		if err != nil {
			log.Fatal(err)
		}
		pksPred, err := pksPlan.Predict(at)
		if err != nil {
			log.Fatal(err)
		}
		pksSpeedup, err := pksPlan.Speedup(golden)
		if err != nil {
			log.Fatal(err)
		}

		sieveErr := math.Abs(sievePred.Cycles-total) / total
		pksErr := math.Abs(pksPred.Cycles-total) / total
		sieveSum += sieveErr
		pksSum += pksErr
		fmt.Printf("%-14s %12d %10.2f%% %10.2f%% %11.0fx %11.0fx %11.1fx\n",
			spec.Name, w.NumInvocations(), 100*sieveErr, 100*pksErr,
			sieveSpeedup, pksSpeedup, fullProfile.WallSeconds/icProfile.WallSeconds)
	}
	n := float64(len(specs))
	fmt.Printf("\naverages: Sieve %.2f%%, PKS %.2f%% — the paper reports 1.3%% vs 16.0%% on MLPerf\n",
		100*sieveSum/n, 100*pksSum/n)
	fmt.Println("(the profiling-speedup column is why Sieve's one-metric profile matters:")
	fmt.Println(" the paper measured >1 month of Nsight profiling for some MLPerf workloads)")
}
