package sim

import (
	"math"
	"testing"

	"github.com/gpusampling/sieve/internal/trace"
	"github.com/gpusampling/sieve/internal/workloads"
)

func TestPKPConvergesOnSteadyTrace(t *testing.T) {
	// A long homogeneous ALU trace has constant IPC: PKP must converge and
	// project accurately.
	s := mustSim(t)
	tr := aluTrace(60000)
	full, err := s.Simulate(tr)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := s.SimulateProjected(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !proj.Converged {
		t.Fatal("steady trace should converge")
	}
	if proj.SimulatedFraction >= 0.9 {
		t.Fatalf("simulated %.0f%% of the trace, PKP should stop much earlier", 100*proj.SimulatedFraction)
	}
	relErr := math.Abs(float64(proj.SMCycles)-float64(full.SMCycles)) / float64(full.SMCycles)
	if relErr > 0.05 {
		t.Fatalf("projected cycles err %.2f%% vs full simulation", 100*relErr)
	}
	if proj.WarpInstructions != full.WarpInstructions {
		t.Fatalf("projected instruction count %d, want full %d", proj.WarpInstructions, full.WarpInstructions)
	}
}

func TestPKPRunsToCompletionOnShortTrace(t *testing.T) {
	s := mustSim(t)
	tr := aluTrace(50)
	proj, err := s.SimulateProjected(tr)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Converged {
		t.Fatal("trace shorter than a window cannot converge early")
	}
	if proj.SimulatedFraction != 1 {
		t.Fatalf("fraction = %g", proj.SimulatedFraction)
	}
	full, err := s.Simulate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if proj.SMCycles != full.SMCycles {
		t.Fatalf("non-converged projection must equal full simulation: %d vs %d", proj.SMCycles, full.SMCycles)
	}
}

func TestPKPRejectsInvalidTrace(t *testing.T) {
	s := mustSim(t)
	if _, err := s.SimulateProjected(&trace.Trace{}); err != nil {
		return
	}
	t.Fatal("want error for invalid trace")
}

func TestPKPOnGeneratedTraceMatchesFullWithinTolerance(t *testing.T) {
	spec, err := workloads.ByName("gms")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.Generate(spec, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSim(t)
	tr, err := trace.Generate(&w.Invocations[0], 40000, 3)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Simulate(tr)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := s.SimulateProjected(tr)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(float64(proj.SMCycles)-float64(full.SMCycles)) / float64(full.SMCycles)
	if relErr > 0.2 {
		t.Fatalf("PKP projection err %.1f%% on generated trace", 100*relErr)
	}
	if proj.Converged && proj.SimulatedFraction >= 1 {
		t.Fatal("converged projection should have simulated a strict fraction")
	}
}

func TestPKPTighterToleranceSimulatesMore(t *testing.T) {
	s := mustSim(t)
	spec, _ := workloads.ByName("lmc")
	w, err := workloads.Generate(spec, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(&w.Invocations[0], 40000, 5)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := s.simulateProjected(tr, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := s.simulateProjected(tr, 0.0005)
	if err != nil {
		t.Fatal(err)
	}
	if tight.SimulatedInstructions < loose.SimulatedInstructions {
		t.Fatalf("tighter tolerance simulated less: %d vs %d",
			tight.SimulatedInstructions, loose.SimulatedInstructions)
	}
}

func TestEngineMatchesSimulate(t *testing.T) {
	// The engine driven to completion in small budgets must agree exactly
	// with one Simulate run.
	s := mustSim(t)
	tr := memTrace(800, func(i int) uint64 { return uint64(i%37) * 128 })
	full, err := s.Simulate(tr)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := s.newEngine(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	for eng.remaining > 0 {
		eng.run(97)
	}
	res := eng.result(tr)
	if res.SMCycles != full.SMCycles || res.WarpInstructions != full.WarpInstructions {
		t.Fatalf("engine (%d cycles, %d instrs) != Simulate (%d cycles, %d instrs)",
			res.SMCycles, res.WarpInstructions, full.SMCycles, full.WarpInstructions)
	}
	if res.L1HitRate != full.L1HitRate || res.L2HitRate != full.L2HitRate {
		t.Fatal("cache statistics diverge between engine and Simulate")
	}
}
