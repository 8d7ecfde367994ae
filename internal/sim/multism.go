package sim

import (
	"math"

	"github.com/gpusampling/sieve/internal/trace"
)

// MultiSMResult extends Result with per-SM detail from a multi-SM
// simulation.
type MultiSMResult struct {
	Result
	// SMs is the number of simulated streaming multiprocessors.
	SMs int
	// PerSMCycles is each SM's finish cycle, the cycle after its last issue
	// (0 for an SM none of whose warps has an instruction); the Result's
	// SMCycles is the maximum (the kernel ends when its slowest SM drains).
	PerSMCycles []uint64
	// Imbalance is max/mean of PerSMCycles: 1.0 is a perfectly balanced
	// launch.
	Imbalance float64
	// OpMix counts executed warp instructions per opcode class.
	OpMix map[trace.Opcode]int
}

// SimulateMultiSM replays a trace across nSMs streaming multiprocessors:
// warps are distributed round-robin, each SM has a private L1 and its own
// issue slots, and all SMs share the L2 and a bandwidth-limited DRAM
// channel. nSMs ≤ 0 selects the architecture's SM count; either way nSMs is
// capped at the traced warps. With one SM it equals Simulate.
//
// Compared to Simulate (one SM + wave extrapolation), the multi-SM mode
// captures inter-SM load imbalance and L2/DRAM contention explicitly.
func (s *Simulator) SimulateMultiSM(t *trace.Trace, nSMs int) (*MultiSMResult, error) {
	if nSMs <= 0 {
		nSMs = s.arch.SMs
	}
	nSMs = max(min(nSMs, t.Warps), 1)
	e, err := s.newEngine(t, nSMs)
	if err != nil {
		return nil, err
	}
	e.run(math.MaxInt)

	res := &MultiSMResult{
		Result:      *e.result(t),
		SMs:         nSMs,
		PerSMCycles: make([]uint64, nSMs),
		OpMix:       make(map[trace.Opcode]int),
	}
	var sum float64
	for i := range e.sms {
		res.PerSMCycles[i] = e.sms[i].end
		sum += float64(e.sms[i].end)
	}
	res.Imbalance = float64(res.SMCycles) / (sum / float64(nSMs))
	// Every instruction of the trace executes.
	for i := range t.Instrs {
		res.OpMix[t.Instrs[i].Op]++
	}
	return res, nil
}
