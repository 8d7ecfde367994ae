// Tracing and detailed simulation (the paper's Section V-G): after Sieve
// picks representative kernel invocations, only their SASS-like traces are
// generated and fed to the trace-driven cycle-level simulator — serially on
// one core, or with each trace file dispatched to a separate core, where
// total time is determined by the longest-running kernel invocation.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"github.com/gpusampling/sieve"
)

func main() {
	var (
		workload = flag.String("workload", "gms", "Table I workload name")
		scale    = flag.Float64("scale", 0.01, "workload scale factor in (0, 1]")
		maxWarp  = flag.Int("max-warp-instrs", 20000, "per-trace warp-instruction cap")
	)
	flag.Parse()

	w, err := sieve.GenerateWorkload(*workload, *scale)
	if err != nil {
		log.Fatal(err)
	}
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		log.Fatal(err)
	}
	profile, err := sieve.ProfileInstructionCounts(w, hw)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := sieve.Sample(sieve.ProfileRows(profile), sieve.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s: %d invocations -> %d representative traces\n",
		w.Name, w.NumInvocations(), plan.NumStrata())

	traces, err := sieve.GeneratePlanTraces(w, plan, *maxWarp, 1)
	if err != nil {
		log.Fatal(err)
	}
	var instrs int
	for _, tr := range traces {
		instrs += len(tr.Instrs)
	}
	fmt.Printf("traced %d warp instructions across %d files\n\n", instrs, len(traces))

	simulator, err := sieve.NewSimulator(sieve.Ampere())
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	serial, err := simulator.SimulateParallel(traces, 1)
	if err != nil {
		log.Fatal(err)
	}
	serialTime := time.Since(start)

	workers := runtime.GOMAXPROCS(0)
	start = time.Now()
	parallel, err := simulator.SimulateParallel(traces, workers)
	if err != nil {
		log.Fatal(err)
	}
	parallelTime := time.Since(start)

	var slowest *sieve.SimResult
	var totalCycles float64
	for i, r := range serial {
		totalCycles += r.Cycles
		if slowest == nil || r.SMCycles > slowest.SMCycles {
			slowest = serial[i]
		}
	}
	fmt.Printf("serial simulation:   %8s\n", serialTime.Round(time.Millisecond))
	fmt.Printf("parallel simulation: %8s (%d workers)\n", parallelTime.Round(time.Millisecond), workers)
	fmt.Printf("longest-running representative: %s/%d (%d SM cycles)\n",
		slowest.Kernel, slowest.Invocation, slowest.SMCycles)
	fmt.Printf("estimated GPU cycles across representatives: %.4g\n\n", totalCycles)

	// Parallel dispatch is a pure scheduling change: identical results.
	for i := range serial {
		if serial[i].SMCycles != parallel[i].SMCycles {
			log.Fatalf("parallel result diverged for trace %d", i)
		}
	}
	fmt.Println("serial and parallel dispatch agree on every trace (pure scheduling change)")
}
