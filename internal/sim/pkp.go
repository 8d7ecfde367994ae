package sim

import (
	"math"

	"github.com/gpusampling/sieve/internal/trace"
)

// Principal Kernel Projection (Baddouh et al., MICRO 2021) is the
// intra-invocation sampling technique the Sieve paper discusses in Section
// II-A: per-kernel IPC converges quickly as execution progresses, so
// simulation can stop once the running IPC is stable and the remainder of
// the invocation can be projected. PKP is orthogonal to both Sieve and PKS
// (it shortens each representative's simulation; they shorten the list of
// representatives). Its calibrated settings:
const (
	// pkpWindowInstrs is the warp-instruction epoch between IPC checks.
	pkpWindowInstrs = 5000
	// pkpTolerance is the maximum relative IPC change across consecutive
	// windows to count as stable.
	pkpTolerance = 0.02
	// pkpStableWindows is how many consecutive stable windows constitute
	// convergence.
	pkpStableWindows = 4
	// pkpMinFraction is the minimum fraction of the trace simulated before
	// early exit is allowed.
	pkpMinFraction = 0.25
)

// PKPResult is a projected simulation outcome.
type PKPResult struct {
	// Result is the projected full-invocation result: Cycles and SMCycles
	// are extrapolated from the converged IPC.
	Result
	// SimulatedInstructions is how many warp instructions actually ran.
	SimulatedInstructions int
	// SimulatedFraction is SimulatedInstructions over the trace length.
	SimulatedFraction float64
	// Converged reports whether IPC stabilized before the trace ended.
	Converged bool
}

// SimulateProjected replays a trace on one SM with PKP early exit: once the
// running IPC is stable across consecutive instruction windows, simulation
// stops and full-invocation cycles are projected as total instructions
// divided by the converged IPC. A trace that never converges runs to the end
// and equals Simulate.
func (s *Simulator) SimulateProjected(t *trace.Trace) (*PKPResult, error) {
	return s.simulateProjected(t, pkpTolerance)
}

// simulateProjected is SimulateProjected at an explicit IPC tolerance, the
// seam through which tests compare tolerances.
func (s *Simulator) simulateProjected(t *trace.Trace, tolerance float64) (*PKPResult, error) {
	eng, err := s.newEngine(t, 1)
	if err != nil {
		return nil, err
	}
	total := len(t.Instrs)
	minInstrs := int(pkpMinFraction * float64(total))
	var (
		prevWindowIPC float64
		stable        int
	)
	for {
		cycleBefore := eng.cycle
		n := eng.run(pkpWindowInstrs)
		if eng.remaining == 0 {
			return &PKPResult{
				Result:                *eng.result(t),
				SimulatedInstructions: eng.executed,
				SimulatedFraction:     1,
			}, nil
		}
		// A window that left the trace unfinished issued its budget, so it
		// spans at least one cycle and its IPC is positive.
		windowIPC := float64(n) / float64(eng.cycle-cycleBefore)
		if prevWindowIPC > 0 && eng.executed >= minInstrs {
			if math.Abs(windowIPC-prevWindowIPC)/prevWindowIPC <= tolerance {
				stable++
			} else {
				stable = 0
			}
			if stable >= pkpStableWindows {
				// Project: the remaining instructions run at the converged
				// steady-state (window) IPC.
				res := eng.result(t)
				projCycles := float64(eng.cycle) + float64(total-eng.executed)/windowIPC
				res.Cycles *= projCycles / float64(eng.cycle)
				res.SMCycles = uint64(projCycles)
				res.WarpInstructions = total
				res.IPC = windowIPC
				return &PKPResult{
					Result:                *res,
					SimulatedInstructions: eng.executed,
					SimulatedFraction:     float64(eng.executed) / float64(total),
					Converged:             true,
				}, nil
			}
		}
		prevWindowIPC = windowIPC
	}
}
