// Command simulate replays SASS-like trace files through the trace-driven
// cycle-level GPU simulator — the paper's Section V-G workflow, where
// parallel simulation time is determined by the longest-running kernel
// invocation.
//
// Modes:
//
//	simulate -traces traces/                   # each trace on its own core (GOMAXPROCS workers)
//	simulate -traces traces/ -parallel 0       # serial, one SM + extrapolation
//	simulate -traces traces/ -pkp              # PKP early exit (IPC convergence)
//	simulate -traces traces/ -multism 16       # explicit multi-SM simulation
//	simulate -traces traces/ -arch turing      # or a JSON arch file
//	simulate -traces traces/ -json out.json    # machine-readable results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/internal/cliflags"
)

func main() {
	var (
		dir      = flag.String("traces", "traces", "directory of .trace files")
		archName = cliflags.Arch(flag.CommandLine)
		parallel = cliflags.Parallelism(flag.CommandLine, "parallel")
		pkp      = flag.Bool("pkp", false, "Principal Kernel Projection: stop each trace once IPC converges")
		multiSM  = flag.Int("multism", 0, "simulate across this many explicit SMs (0 = single-SM mode)")
		jsonOut  = flag.String("json", "", "also write results as JSON to this file")
		logLevel = cliflags.LogLevel(flag.CommandLine)
	)
	flag.Parse()
	logger := cliflags.MustLogger("simulate", *logLevel)
	if err := run(*dir, *archName, *parallel, *pkp, *multiSM, *jsonOut); err != nil {
		logger.Error("run failed", "error", err)
		os.Exit(1)
	}
}

// record is the JSON form of one simulated trace.
type record struct {
	Kernel            string  `json:"kernel"`
	Invocation        int     `json:"invocation"`
	GPUCycles         float64 `json:"gpu_cycles"`
	SMCycles          uint64  `json:"sm_cycles"`
	IPC               float64 `json:"ipc"`
	L1HitRate         float64 `json:"l1_hit_rate"`
	L2HitRate         float64 `json:"l2_hit_rate"`
	SimulatedFraction float64 `json:"simulated_fraction,omitempty"`
	Imbalance         float64 `json:"imbalance,omitempty"`
}

func run(dir, archName string, parallel int, pkp bool, multiSM int, jsonOut string) error {
	if pkp && multiSM > 0 {
		return fmt.Errorf("-pkp and -multism are mutually exclusive")
	}
	arch, err := sieve.ResolveArch(archName)
	if err != nil {
		return err
	}

	paths, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no .trace files in %s", dir)
	}
	sort.Strings(paths)

	var traces []*sieve.Trace
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		tr, err := sieve.ReadTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		traces = append(traces, tr)
	}

	simulator, err := sieve.NewSimulator(arch)
	if err != nil {
		return err
	}

	start := time.Now()
	var records []record
	mode := "serial"
	switch {
	case pkp:
		mode = "serial + PKP"
		for _, tr := range traces {
			res, err := simulator.SimulateProjected(tr)
			if err != nil {
				return err
			}
			records = append(records, record{
				Kernel: res.Kernel, Invocation: res.Invocation,
				GPUCycles: res.Cycles, SMCycles: res.SMCycles, IPC: res.IPC,
				L1HitRate: res.L1HitRate, L2HitRate: res.L2HitRate,
				SimulatedFraction: res.SimulatedFraction,
			})
		}
	case multiSM > 0:
		mode = fmt.Sprintf("multi-SM (%d)", multiSM)
		for _, tr := range traces {
			res, err := simulator.SimulateMultiSM(tr, multiSM)
			if err != nil {
				return err
			}
			records = append(records, record{
				Kernel: res.Kernel, Invocation: res.Invocation,
				GPUCycles: res.Cycles, SMCycles: res.SMCycles, IPC: res.IPC,
				L1HitRate: res.L1HitRate, L2HitRate: res.L2HitRate,
				Imbalance: res.Imbalance,
			})
		}
	default:
		workers := 1
		if parallel > 0 {
			mode = fmt.Sprintf("parallel (%d workers)", parallel)
			workers = parallel
		}
		results, err := simulator.SimulateParallel(traces, workers)
		if err != nil {
			return err
		}
		for _, res := range results {
			records = append(records, record{
				Kernel: res.Kernel, Invocation: res.Invocation,
				GPUCycles: res.Cycles, SMCycles: res.SMCycles, IPC: res.IPC,
				L1HitRate: res.L1HitRate, L2HitRate: res.L2HitRate,
			})
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("simulated %d traces on %s, %s dispatch, wall time %s\n\n",
		len(records), arch.Name, mode, elapsed.Round(time.Millisecond))
	fmt.Printf("%-36s %12s %12s %8s %8s %8s\n",
		"kernel/invocation", "GPU cycles", "SM cycles", "IPC", "L1 hit", "L2 hit")
	var totalCycles float64
	for _, r := range records {
		extra := ""
		if r.SimulatedFraction > 0 && r.SimulatedFraction < 1 {
			extra = fmt.Sprintf("  (PKP: %.0f%% simulated)", 100*r.SimulatedFraction)
		}
		if r.Imbalance > 0 {
			extra = fmt.Sprintf("  (imbalance %.2f)", r.Imbalance)
		}
		fmt.Printf("%-36s %12.3g %12d %8.2f %7.1f%% %7.1f%%%s\n",
			fmt.Sprintf("%s/%d", r.Kernel, r.Invocation),
			r.GPUCycles, r.SMCycles, r.IPC, 100*r.L1HitRate, 100*r.L2HitRate, extra)
		totalCycles += r.GPUCycles
	}
	fmt.Printf("\ntotal estimated GPU cycles across representatives: %.4g\n", totalCycles)

	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("JSON results written to %s\n", jsonOut)
	}
	return nil
}
