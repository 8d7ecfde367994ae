package sim

import (
	"testing"

	"github.com/gpusampling/sieve/internal/cudamodel"
	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/trace"
)

// fuzzOps are the opcodes a fuzzed trace draws from.
var fuzzOps = []trace.Opcode{
	trace.OpIMAD, trace.OpFFMA, trace.OpHMMA, trace.OpLDG, trace.OpSTG,
	trace.OpLDS, trace.OpSTS, trace.OpBRA, trace.OpEXIT,
}

// fuzzTrace builds a small trace from bytes: data[0] picks the warp count
// (1–8), data[1] how often the body repeats (1–32, so some traces span
// several PKP windows), and every following byte triple one instruction of
// the body: its warp (a warp no triple names stays empty), opcode, address
// and coalescing degree.
func fuzzTrace(data []byte) *trace.Trace {
	tr := &trace.Trace{
		Kernel: "fuzz",
		Grid:   cudamodel.Dim3{X: 1, Y: 1, Z: 1},
		Block:  cudamodel.Dim3{X: 32, Y: 1, Z: 1},
		Warps:  1,
	}
	if len(data) < 2 {
		return tr
	}
	tr.Warps = 1 + int(data[0]%8)
	tr.Grid.X = int32(1 + data[0]/8)
	repeat := 1 + int(data[1]%32)
	body := data[2:]
	for r := 0; r < repeat; r++ {
		for i := 0; i+2 < len(body) && i < 3*256; i += 3 {
			b0, b1, b2 := body[i], body[i+1], body[i+2]
			tr.Instrs = append(tr.Instrs, trace.Instr{
				Warp:       int(b0) % tr.Warps,
				PC:         uint64(0x1000 + 16*i),
				Op:         fuzzOps[int(b1)%len(fuzzOps)],
				ActiveMask: 0xFFFFFFFF,
				Addr:       uint64(b2) * 977 * lineBytes,
				Lines:      int(b1>>4) % 5,
			})
		}
	}
	return tr
}

// FuzzSimulateOneSM checks the engine's single-SM identities on arbitrary
// traces: Simulate equals SimulateMultiSM at one SM, and PKP at a tolerance
// no window can meet, driven window by window, runs to the end and equals
// Simulate. Invalid traces are rejected by all three alike.
func FuzzSimulateOneSM(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{3, 31, 0, 3, 1, 1, 0, 2, 2, 7, 3, 0, 8, 0})
	f.Add([]byte{7, 20, 1, 3, 9, 2, 4, 9, 5, 8, 0, 0, 0, 0, 6, 6, 6})
	f.Add([]byte{5, 9, 0, 19, 200, 4, 35, 17, 0, 0, 0})
	s, err := New(gpu.Ampere())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzTrace(data)
		full, err := s.Simulate(tr)
		multi, merr := s.SimulateMultiSM(tr, 1)
		proj, perr := s.simulateProjected(tr, -1)
		if err != nil {
			if merr == nil || perr == nil {
				t.Fatalf("Simulate rejected the trace (%v), SimulateMultiSM err %v, SimulateProjected err %v", err, merr, perr)
			}
			return
		}
		if merr != nil || perr != nil {
			t.Fatalf("Simulate accepted the trace, SimulateMultiSM err %v, SimulateProjected err %v", merr, perr)
		}
		if multi.Result != *full {
			t.Fatalf("SimulateMultiSM(t, 1) = %+v, Simulate = %+v", multi.Result, *full)
		}
		if multi.SMs != 1 || len(multi.PerSMCycles) != 1 || multi.PerSMCycles[0] != full.SMCycles {
			t.Fatalf("one SM: SMs %d, PerSMCycles %v, SMCycles %d", multi.SMs, multi.PerSMCycles, full.SMCycles)
		}
		if proj.Converged || proj.SimulatedFraction != 1 || proj.SimulatedInstructions != len(tr.Instrs) {
			t.Fatalf("unreachable tolerance converged or stopped early: %+v", proj)
		}
		if proj.Result != *full {
			t.Fatalf("SimulateProjected = %+v, Simulate = %+v", proj.Result, *full)
		}
	})
}
