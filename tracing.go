package sieve

import (
	"fmt"
	"io"

	"github.com/gpusampling/sieve/internal/sim"
	"github.com/gpusampling/sieve/internal/trace"
)

// Trace is the SASS-like dynamic instruction stream of one kernel
// invocation, stored as a plain text file (Section V-G).
type Trace = trace.Trace

// SimResult summarizes one simulated trace.
type SimResult = sim.Result

// Simulator is the trace-driven cycle-level GPU simulator.
type Simulator = sim.Simulator

// GenerateTrace produces the SASS-like trace of one invocation, capped at
// maxWarpInstrs warp instructions (≤ 0 selects the default cap). It stands in
// for the paper's modified Accel-sim/NVBit tracer.
func GenerateTrace(inv *Invocation, maxWarpInstrs int, seed int64) (*Trace, error) {
	return trace.Generate(inv, maxWarpInstrs, seed)
}

// GeneratePlanTraces traces every representative invocation of a sampling
// plan — the paper's workflow of tracing only the selected invocations.
func GeneratePlanTraces(w *Workload, plan *Plan, maxWarpInstrs int, seed int64) ([]*Trace, error) {
	var traces []*Trace
	for _, idx := range plan.RepresentativeIndices() {
		if idx < 0 || idx >= len(w.Invocations) {
			return nil, fmt.Errorf("sieve: representative %d outside workload (%d invocations)", idx, len(w.Invocations))
		}
		tr, err := trace.Generate(&w.Invocations[idx], maxWarpInstrs, seed)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return traces, nil
}

// WriteTrace serializes a trace in the plain-text format.
func WriteTrace(t *Trace, w io.Writer) error { return t.Write(w) }

// ReadTrace parses a trace previously written with WriteTrace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// NewSimulator returns a trace-driven simulator for the architecture.
func NewSimulator(arch Arch) (*Simulator, error) { return sim.New(arch) }

// PKPResult is the outcome of Simulator.SimulateProjected, Principal Kernel
// Projection: simulation exits early once per-window IPC converges and the
// remainder of the invocation is projected (the intra-invocation sampling
// technique of Baddouh et al. that the paper notes is orthogonal to Sieve).
// It records how much of the trace actually ran.
type PKPResult = sim.PKPResult

// MultiSMResult is the outcome of a multi-SM simulation: per-SM finish
// cycles, load imbalance and the executed opcode mix.
type MultiSMResult = sim.MultiSMResult
