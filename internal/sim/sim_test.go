package sim

import (
	"strings"
	"testing"

	"github.com/gpusampling/sieve/internal/cudamodel"
	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/trace"
	"github.com/gpusampling/sieve/internal/workloads"
)

func mustSim(t *testing.T) *Simulator {
	t.Helper()
	s, err := New(gpu.Ampere())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// aluTrace builds a trace of n ALU instructions on one warp.
func aluTrace(n int) *trace.Trace {
	tr := &trace.Trace{
		Kernel: "alu", Invocation: 0,
		Grid:  cudamodel.Dim3{X: 1, Y: 1, Z: 1},
		Block: cudamodel.Dim3{X: 32, Y: 1, Z: 1},
		Warps: 1,
	}
	pc := uint64(0x1000)
	for i := 0; i < n; i++ {
		tr.Instrs = append(tr.Instrs, trace.Instr{Warp: 0, PC: pc, Op: trace.OpIMAD, ActiveMask: 0xFFFFFFFF})
		pc += 16
	}
	tr.Instrs = append(tr.Instrs, trace.Instr{Warp: 0, PC: pc, Op: trace.OpEXIT, ActiveMask: 0xFFFFFFFF})
	return tr
}

// memTrace builds a trace alternating loads over a configurable address
// pattern.
func memTrace(n int, addr func(i int) uint64) *trace.Trace {
	tr := &trace.Trace{
		Kernel: "mem", Invocation: 1,
		Grid:  cudamodel.Dim3{X: 1, Y: 1, Z: 1},
		Block: cudamodel.Dim3{X: 32, Y: 1, Z: 1},
		Warps: 1,
	}
	pc := uint64(0x1000)
	for i := 0; i < n; i++ {
		tr.Instrs = append(tr.Instrs, trace.Instr{
			Warp: 0, PC: pc, Op: trace.OpLDG, ActiveMask: 0xFFFFFFFF, Addr: addr(i),
		})
		pc += 16
	}
	tr.Instrs = append(tr.Instrs, trace.Instr{Warp: 0, PC: pc, Op: trace.OpEXIT, ActiveMask: 0xFFFFFFFF})
	return tr
}

func TestNewRejectsInvalidArch(t *testing.T) {
	bad := gpu.Ampere()
	bad.SMs = 0
	if _, err := New(bad); err == nil {
		t.Fatal("want error for invalid arch")
	}
}

func TestSimulateALUChain(t *testing.T) {
	s := mustSim(t)
	res, err := s.Simulate(aluTrace(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.WarpInstructions != 101 {
		t.Fatalf("executed %d instructions", res.WarpInstructions)
	}
	// A single warp issues one ALU op every latALU cycles.
	if res.SMCycles < 100*latALU || res.SMCycles > 110*latALU {
		t.Fatalf("ALU chain cycles = %d, want ≈ %d", res.SMCycles, 100*latALU)
	}
	if res.IPC <= 0 || res.IPC > float64(latALU) {
		t.Fatalf("IPC = %g", res.IPC)
	}
}

func TestSimulateRejectsInvalidTrace(t *testing.T) {
	s := mustSim(t)
	if _, err := s.Simulate(&trace.Trace{}); err == nil {
		t.Fatal("want error for invalid trace")
	}
}

func TestCacheHitsBeatMisses(t *testing.T) {
	s := mustSim(t)
	// Same line every access: after one miss, everything hits in L1.
	hot, err := s.Simulate(memTrace(500, func(int) uint64 { return 0x1000 }))
	if err != nil {
		t.Fatal(err)
	}
	if hot.L1HitRate < 0.99 {
		t.Fatalf("hot-line L1 hit rate = %g", hot.L1HitRate)
	}
	// Streaming: every access a fresh line → all misses to DRAM.
	cold, err := s.Simulate(memTrace(500, func(i int) uint64 { return uint64(i) * 128 * 7919 }))
	if err != nil {
		t.Fatal(err)
	}
	if cold.L1HitRate > 0.01 || cold.L2HitRate > 0.01 {
		t.Fatalf("streaming hit rates = %g / %g", cold.L1HitRate, cold.L2HitRate)
	}
	if cold.SMCycles <= hot.SMCycles*3 {
		t.Fatalf("streaming (%d cycles) should be much slower than hot-line (%d)", cold.SMCycles, hot.SMCycles)
	}
}

func TestMultiWarpOverlapsLatency(t *testing.T) {
	s := mustSim(t)
	// One warp of n loads vs eight warps of n/8 loads each: total work equal,
	// but multi-warp overlaps memory latency and finishes sooner.
	single := memTrace(400, func(i int) uint64 { return uint64(i) * 128 * 31 })
	multi := &trace.Trace{
		Kernel: "mem8", Invocation: 2,
		Grid:  cudamodel.Dim3{X: 8, Y: 1, Z: 1},
		Block: cudamodel.Dim3{X: 32, Y: 1, Z: 1},
		Warps: 8,
	}
	pc := uint64(0x1000)
	for i := 0; i < 400; i++ {
		multi.Instrs = append(multi.Instrs, trace.Instr{
			Warp: i % 8, PC: pc, Op: trace.OpLDG, ActiveMask: 0xFFFFFFFF,
			Addr: uint64(i) * 128 * 31,
		})
		pc += 16
	}
	for w := 0; w < 8; w++ {
		multi.Instrs = append(multi.Instrs, trace.Instr{Warp: w, PC: pc + uint64(w)*16, Op: trace.OpEXIT, ActiveMask: 0xFFFFFFFF})
	}
	rs, err := s.Simulate(single)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := s.Simulate(multi)
	if err != nil {
		t.Fatal(err)
	}
	if rm.SMCycles >= rs.SMCycles {
		t.Fatalf("8 warps (%d cycles) should beat 1 warp (%d cycles)", rm.SMCycles, rs.SMCycles)
	}
}

func TestSimulateGeneratedTraces(t *testing.T) {
	spec, err := workloads.ByName("gru")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.Generate(spec, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSim(t)
	var traces []*trace.Trace
	for i := 0; i < 4; i++ {
		tr, err := trace.Generate(&w.Invocations[i*7], 3000, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	serial, err := s.SimulateParallel(traces, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := s.SimulateParallel(traces, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Cycles <= 0 || serial[i].IPC <= 0 {
			t.Fatalf("trace %d: degenerate result %+v", i, serial[i])
		}
		// Parallel dispatch must be a pure scheduling change: identical
		// per-trace results.
		if serial[i].SMCycles != parallel[i].SMCycles || serial[i].WarpInstructions != parallel[i].WarpInstructions {
			t.Fatalf("trace %d: parallel result differs from serial", i)
		}
	}
}

func TestSimulateParallelPropagatesErrors(t *testing.T) {
	s := mustSim(t)
	bad := &trace.Trace{Kernel: "x", Invocation: 7, Warps: 1} // no instructions
	traces := []*trace.Trace{aluTrace(10), bad}
	for _, workers := range []int{1, 2} {
		_, err := s.SimulateParallel(traces, workers)
		if err == nil {
			t.Fatalf("workers=%d: want error", workers)
		}
		// Serial and parallel runs name the failing trace alike.
		if !strings.Contains(err.Error(), "trace 1 (x/7)") {
			t.Fatalf("workers=%d: error %q does not name trace 1 (x/7)", workers, err)
		}
	}
}

func TestWholeGPUCyclesScaleWithGrid(t *testing.T) {
	s := mustSim(t)
	small := aluTrace(200)
	large := aluTrace(200)
	large.Grid = cudamodel.Dim3{X: 1 << 16, Y: 1, Z: 1} // far more CTAs than traced
	rs, err := s.Simulate(small)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := s.Simulate(large)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Cycles <= rs.Cycles {
		t.Fatalf("wide grid (%g) should extrapolate to more cycles than single CTA (%g)", rl.Cycles, rs.Cycles)
	}
}

func TestCacheLRU(t *testing.T) {
	c := newCache(1, 2) // one set, two ways
	if c.access(1) {
		t.Fatal("first touch cannot hit")
	}
	if c.access(2) {
		t.Fatal("first touch cannot hit")
	}
	if !c.access(1) {
		t.Fatal("line 1 should still be resident")
	}
	// Insert 3 → evicts LRU (line 2).
	if c.access(3) {
		t.Fatal("line 3 first touch")
	}
	if c.access(2) {
		t.Fatal("line 2 should have been evicted")
	}
	if !c.access(3) {
		t.Fatal("line 3 should be resident")
	}
}

func TestMSHRMergesConcurrentMissesToSameLine(t *testing.T) {
	s := mustSim(t)
	// Two warps each load the same line once; the second request merges
	// with the first's outstanding DRAM fill instead of paying a fresh
	// bandwidth slot + full latency.
	sameLine := &trace.Trace{
		Kernel: "mshr", Invocation: 0,
		Grid:  cudamodel.Dim3{X: 2, Y: 1, Z: 1},
		Block: cudamodel.Dim3{X: 32, Y: 1, Z: 1},
		Warps: 2,
		Instrs: []trace.Instr{
			{Warp: 0, PC: 0x1000, Op: trace.OpLDG, ActiveMask: 0xFFFFFFFF, Addr: 0x80000, Lines: 1},
			{Warp: 1, PC: 0x1000, Op: trace.OpLDG, ActiveMask: 0xFFFFFFFF, Addr: 0x80000, Lines: 1},
			{Warp: 0, PC: 0x1010, Op: trace.OpEXIT, ActiveMask: 0xFFFFFFFF},
			{Warp: 1, PC: 0x1010, Op: trace.OpEXIT, ActiveMask: 0xFFFFFFFF},
		},
	}
	res, err := s.Simulate(sameLine)
	if err != nil {
		t.Fatal(err)
	}
	// Both requests complete within roughly one DRAM fill.
	if res.SMCycles > latDRAM+16 {
		t.Fatalf("merged misses took %d cycles, want ≈ %d", res.SMCycles, latDRAM)
	}
}

func TestMSHRFillInstallsLine(t *testing.T) {
	s := mustSim(t)
	// One warp loads a line, computes long enough for the fill to land,
	// then reloads it from a cold L1 path: the reload must hit in L2.
	// (Use a second line to evict nothing; L1 is large, so force the second
	// access via a different warp with its own... simpler: same warp
	// re-touches after eviction cannot be forced, so check hit rates via
	// two warps touching the same line far apart in time.)
	tr := &trace.Trace{
		Kernel: "fill", Invocation: 0,
		Grid:  cudamodel.Dim3{X: 2, Y: 1, Z: 1},
		Block: cudamodel.Dim3{X: 32, Y: 1, Z: 1},
		Warps: 2,
	}
	tr.Instrs = append(tr.Instrs, trace.Instr{Warp: 0, PC: 0x1000, Op: trace.OpLDG, ActiveMask: 0xFFFFFFFF, Addr: 0x90000, Lines: 1})
	pc := uint64(0x1000)
	for i := 0; i < 300; i++ { // ~1200 cycles of ALU on warp 1 before its load
		tr.Instrs = append(tr.Instrs, trace.Instr{Warp: 1, PC: pc, Op: trace.OpIMAD, ActiveMask: 0xFFFFFFFF})
		pc += 16
	}
	tr.Instrs = append(tr.Instrs, trace.Instr{Warp: 1, PC: pc, Op: trace.OpLDG, ActiveMask: 0xFFFFFFFF, Addr: 0x90000, Lines: 1})
	tr.Instrs = append(tr.Instrs, trace.Instr{Warp: 0, PC: 0x1010, Op: trace.OpEXIT, ActiveMask: 0xFFFFFFFF})
	tr.Instrs = append(tr.Instrs, trace.Instr{Warp: 1, PC: pc + 16, Op: trace.OpEXIT, ActiveMask: 0xFFFFFFFF})
	res, err := s.Simulate(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Warp 1's load arrives after the fill completed: it must be an L2 hit
	// (warp 1 has never touched the line, and L1 is shared on one SM here —
	// its first access went through warp 0, so the L1 may also hit; either
	// way at least one of the hierarchy levels shows a hit).
	if res.L1HitRate == 0 && res.L2HitRate == 0 {
		t.Fatalf("late same-line access missed everywhere: %+v", res)
	}
}
