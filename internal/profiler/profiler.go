// Package profiler models the two profiling toolchains of the paper's
// evaluation and produces the per-invocation profile tables that feed the
// sampling back-ends:
//
//   - Full stands in for Nsight Compute: it collects all twelve
//     microarchitecture-independent characteristics (Table II) per kernel
//     invocation, at the cost of multiple kernel replays per invocation,
//     save/restore overhead between passes, and a per-invocation overhead
//     that grows super-linearly as more kernels are profiled — the
//     behaviours Section V-C reports.
//   - InstructionCounts stands in for NVBit instrumentation: it
//     collects only the dynamic instruction count (plus kernel name,
//     invocation ID and CTA size), adding a small constant per-instruction
//     slowdown.
//
// Both profilers also model profiling *time*, so the Fig. 7 experiment can
// compare the cost of feeding PKS versus feeding Sieve.
package profiler

import (
	"fmt"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/cudamodel"
	"github.com/gpusampling/sieve/internal/gpu"
)

// Record is one profiled kernel invocation. Metrics that the active profiler
// does not collect are zero; Collected on the owning Profile says which
// fields are meaningful.
type Record struct {
	// Kernel is the kernel name.
	Kernel string
	// Index is the global chronological invocation index.
	Index int
	// Seq is the per-kernel invocation sequence number.
	Seq int
	// CTASize is the thread-block size (threads per CTA).
	CTASize int
	// Chars holds the collected characteristics.
	Chars cudamodel.Characteristics
}

// Profile is the output of one profiling run: a table with one row per
// kernel invocation (Section III-A: "the profile essentially is a big
// table").
type Profile struct {
	// Workload and Suite identify the profiled workload.
	Workload string
	Suite    string
	// Tool names the profiler that produced the table.
	Tool string
	// Collected lists the metric names populated in every record, in
	// cudamodel.CharacteristicNames order for the metrics present.
	Collected []string
	// Records holds one row per invocation, chronological.
	Records []Record
	// WallSeconds is the modeled time the profiling run took.
	WallSeconds float64
}

// NumInvocations returns the number of profiled invocations.
func (p *Profile) NumInvocations() int { return len(p.Records) }

// Row converts the record into the stratifier's input row.
func (r *Record) Row() core.InvocationProfile {
	return core.InvocationProfile{
		Kernel:           r.Kernel,
		Index:            r.Index,
		InstructionCount: r.Chars.InstructionCount,
		CTASize:          r.CTASize,
	}
}

// Rows converts the table into the stratifier's input rows, one per
// invocation in chronological order.
func (p *Profile) Rows() []core.InvocationProfile {
	out := make([]core.InvocationProfile, len(p.Records))
	for i := range p.Records {
		out[i] = p.Records[i].Row()
	}
	return out
}

// Features converts the table into PKS's 12-dimensional feature rows, one
// per invocation in chronological order.
func (p *Profile) Features() [][]float64 {
	out := make([][]float64, len(p.Records))
	for i := range p.Records {
		out[i] = p.Records[i].Chars.Vector()
	}
	return out
}

// Validate checks the profile table's structural invariants.
func (p *Profile) Validate() error {
	if p.Workload == "" {
		return fmt.Errorf("profiler: profile has no workload name")
	}
	if len(p.Records) == 0 {
		return fmt.Errorf("profiler: profile of %q has no records", p.Workload)
	}
	if len(p.Collected) == 0 {
		return fmt.Errorf("profiler: profile of %q collected no metrics", p.Workload)
	}
	for i, r := range p.Records {
		if r.Index != i {
			return fmt.Errorf("profiler: record %d has index %d", i, r.Index)
		}
		if r.Kernel == "" {
			return fmt.Errorf("profiler: record %d has no kernel name", i)
		}
		if r.Chars.InstructionCount <= 0 {
			return fmt.Errorf("profiler: record %d has non-positive instruction count", i)
		}
		if r.CTASize <= 0 {
			return fmt.Errorf("profiler: record %d has non-positive CTA size", i)
		}
	}
	return nil
}

// Tool names, recorded in Profile.Tool.
const (
	toolFull             = "nsight-full"
	toolInstructionCount = "nvbit-instcount"
	toolTwoLevel         = "nsight-two-level"
)

// record is the profile row of one invocation with every characteristic.
func record(inv *cudamodel.Invocation) Record {
	return Record{
		Kernel:  inv.Kernel,
		Index:   inv.Index,
		Seq:     inv.Seq,
		CTASize: inv.CTASize(),
		Chars:   inv.Chars,
	}
}

// --- Full (Nsight-style) profiler ------------------------------------------

// The Nsight cost model's calibrated constants.
const (
	// replayPassesBase is the number of kernel replays needed to collect
	// the twelve metrics for a plain workload (counter multiplexing).
	replayPassesBase = 4
	// extraPassesTensor is added for tensor-heavy kernels: MLPerf's larger
	// instruction-type diversity needs more collection passes (the paper's
	// explanation for Fig. 7's larger MLPerf speedups).
	extraPassesTensor = 3
	// saveRestoreSeconds is the per-pass memory save/restore overhead.
	saveRestoreSeconds = 0.012
	// fullPerInvocationSeconds is the fixed tool overhead per profiled
	// invocation (reporting, serialization).
	fullPerInvocationSeconds = 0.003
	// superlinearAt is the profiled-invocation count at which the tool's
	// per-invocation overhead has doubled; Nsight becomes progressively
	// slower as its report database grows.
	superlinearAt = 60000
)

// nsightSeconds is the modeled Nsight time of profiling inv as the i-th
// invocation of a run: every replay pass reruns the kernel and saves and
// restores memory, and the growth of the report database slows every
// subsequent invocation.
func nsightSeconds(inv *cudamodel.Invocation, hw *gpu.Model, i int) float64 {
	passes := replayPassesBase
	if inv.Hidden.TensorFraction > 0 {
		passes += extraPassesTensor
	}
	kernelSeconds := hw.Seconds(hw.Cycles(inv))
	growth := 1 + float64(i)/superlinearAt
	return (kernelSeconds+saveRestoreSeconds)*float64(passes)*growth +
		fullPerInvocationSeconds*growth
}

// Full profiles the workload like Nsight Compute driving PKS: it collects
// every characteristic for every invocation and models the multi-pass replay
// cost.
func Full(w *cudamodel.Workload, hw *gpu.Model) (*Profile, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p := &Profile{
		Workload:  w.Name,
		Suite:     w.Suite,
		Tool:      toolFull,
		Collected: cudamodel.CharacteristicNames(),
		Records:   make([]Record, len(w.Invocations)),
	}
	for i := range w.Invocations {
		p.Records[i] = record(&w.Invocations[i])
		p.WallSeconds += nsightSeconds(&w.Invocations[i], hw, i)
	}
	return p, nil
}

// --- Instruction-count (NVBit-style) profiler -------------------------------

// The NVBit cost model's calibrated constants.
const (
	// instrumentationOverhead is the relative kernel slowdown of counting
	// instructions inline (NVBit-style SASS injection).
	instrumentationOverhead = 1.0
	// countPerInvocationSeconds is the fixed per-launch bookkeeping cost.
	countPerInvocationSeconds = 0.001
)

// InstructionCounts profiles the workload like NVBit instrumentation driving
// Sieve: it records kernel name, invocation ID, CTA size and instruction
// count only (Section III-A), in a single instrumented run.
func InstructionCounts(w *cudamodel.Workload, hw *gpu.Model) (*Profile, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p := &Profile{
		Workload:  w.Name,
		Suite:     w.Suite,
		Tool:      toolInstructionCount,
		Collected: []string{"instruction_count"},
		Records:   make([]Record, len(w.Invocations)),
	}
	for i := range w.Invocations {
		inv := &w.Invocations[i]
		p.Records[i] = record(inv)
		p.Records[i].Chars = cudamodel.Characteristics{InstructionCount: inv.Chars.InstructionCount}
		kernelSeconds := hw.Seconds(hw.Cycles(inv))
		p.WallSeconds += kernelSeconds*(1+instrumentationOverhead) + countPerInvocationSeconds
	}
	return p, nil
}
