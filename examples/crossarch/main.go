// Cross-architecture study (the paper's Fig. 9): can a sampling method
// predict the *relative* performance difference between two GPUs? The same
// representative invocations are "run" on the Ampere and Turing models and
// the predicted Ampere-over-Turing speedup is compared against the golden
// full-run measurement. Sieve tracks the golden reference; PKS can mislead.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"

	"github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/internal/cliflags"
)

// fatal reports a terminal error through the structured logger and exits.
func fatal(logger *slog.Logger, err error) {
	logger.Error("crossarch failed", "error", err)
	os.Exit(1)
}

func main() {
	scale := flag.Float64("scale", 0.03, "workload scale factor in (0, 1]")
	logLevel := cliflags.LogLevel(flag.CommandLine)
	flag.Parse()
	logger := cliflags.MustLogger("crossarch", *logLevel)

	ampere, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		fatal(logger, err)
	}
	turing, err := sieve.NewHardware(sieve.Turing())
	if err != nil {
		fatal(logger, err)
	}

	specs, err := sieve.WorkloadsBySuite(sieve.SuiteCactus)
	if err != nil {
		fatal(logger, err)
	}

	fmt.Printf("Ampere (RTX 3080) speedup over Turing (RTX 2080 Ti):\n\n")
	fmt.Printf("%-8s %8s %8s %8s %11s %11s\n", "workload", "golden", "Sieve", "PKS", "Sieve err", "PKS err")
	var sieveSum, pksSum float64
	var n int
	for _, spec := range specs {
		if spec.Name == "rfl" {
			continue // the paper could not run rfl on the Turing system
		}
		w, err := sieve.GenerateFromSpec(spec, *scale)
		if err != nil {
			fatal(logger, err)
		}
		goldenA := ampere.MeasureWorkload(w)
		goldenT := turing.MeasureWorkload(w)
		atA := func(i int) (float64, error) { return goldenA[i], nil }
		atT := func(i int) (float64, error) { return goldenT[i], nil }

		golden := turing.Seconds(sum(goldenT)) / ampere.Seconds(sum(goldenA))

		// Sieve: representatives are selected purely from the
		// microarchitecture-independent profile, so the same plan serves
		// both architectures.
		profile, err := sieve.ProfileInstructionCounts(w, ampere)
		if err != nil {
			fatal(logger, err)
		}
		plan, err := sieve.Sample(sieve.ProfileRows(profile), sieve.Options{})
		if err != nil {
			fatal(logger, err)
		}
		predA, err := plan.Predict(atA)
		if err != nil {
			fatal(logger, err)
		}
		predT, err := plan.Predict(atT)
		if err != nil {
			fatal(logger, err)
		}
		sieveSpeedup := turing.Seconds(predT.Cycles) / ampere.Seconds(predA.Cycles)

		// PKS: representative selection depends on the Ampere golden
		// reference (the microarchitecture dependency the paper criticizes).
		full, err := sieve.ProfileFull(w, ampere)
		if err != nil {
			fatal(logger, err)
		}
		pksPlan, err := sieve.SampleMethod("pks", &sieve.MethodProfile{
			Rows: sieve.ProfileRows(profile), Features: sieve.FeatureRows(full), GoldenCycles: goldenA,
		}, sieve.MethodOptions{PKS: sieve.PKSOptions{Seed: 1}})
		if err != nil {
			fatal(logger, err)
		}
		pksA, err := pksPlan.Predict(atA)
		if err != nil {
			fatal(logger, err)
		}
		pksT, err := pksPlan.Predict(atT)
		if err != nil {
			fatal(logger, err)
		}
		pksSpeedup := turing.Seconds(pksT.Cycles) / ampere.Seconds(pksA.Cycles)

		se := math.Abs(sieveSpeedup-golden) / golden
		pe := math.Abs(pksSpeedup-golden) / golden
		sieveSum += se
		pksSum += pe
		n++
		fmt.Printf("%-8s %8.3f %8.3f %8.3f %10.2f%% %10.2f%%\n",
			spec.Name, golden, sieveSpeedup, pksSpeedup, 100*se, 100*pe)
	}
	fmt.Printf("\naverages: Sieve %.2f%%, PKS %.2f%% — the paper reports 1.5%% vs 9.8%%\n",
		100*sieveSum/float64(n), 100*pksSum/float64(n))
	fmt.Println("workloads slower on Ampere (speedup < 1) have working sets that fit")
	fmt.Println("Turing's 5.5 MB L2 but spill Ampere's 5 MB (lmc, lmr)")
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
