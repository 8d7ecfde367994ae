// Package profiler models the two profiling toolchains of the paper's
// evaluation and produces the per-invocation profile tables that feed the
// sampling back-ends:
//
//   - FullProfiler stands in for Nsight Compute: it collects all twelve
//     microarchitecture-independent characteristics (Table II) per kernel
//     invocation, at the cost of multiple kernel replays per invocation,
//     save/restore overhead between passes, and a per-invocation overhead
//     that grows super-linearly as more kernels are profiled — the
//     behaviours Section V-C reports.
//   - InstructionCountProfiler stands in for NVBit instrumentation: it
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

// Profiler collects a Profile from a workload executing on a hardware model.
type Profiler interface {
	// Name identifies the tool ("nsight-full", "nvbit-instcount").
	Name() string
	// Profile runs the workload under the profiler on the given hardware
	// and returns the profile table.
	Profile(w *cudamodel.Workload, hw *gpu.Model) (*Profile, error)
}

// --- Full (Nsight-style) profiler ------------------------------------------

// FullProfiler collects all twelve characteristics, like Nsight Compute
// driving PKS.
type FullProfiler struct {
	// ReplayPassesBase is the number of kernel replays needed to collect
	// the twelve metrics for a plain workload (counter multiplexing).
	ReplayPassesBase int
	// ExtraPassesTensor is added for tensor-heavy kernels: MLPerf's larger
	// instruction-type diversity needs more collection passes (the paper's
	// explanation for Fig. 7's larger MLPerf speedups).
	ExtraPassesTensor int
	// SaveRestoreSeconds is the per-pass memory save/restore overhead.
	SaveRestoreSeconds float64
	// PerInvocationSeconds is the fixed tool overhead per profiled
	// invocation (reporting, serialization).
	PerInvocationSeconds float64
	// SuperlinearAt is the profiled-invocation count at which the tool's
	// per-invocation overhead has doubled; Nsight becomes progressively
	// slower as its report database grows.
	SuperlinearAt float64
}

// NewFullProfiler returns a FullProfiler with the calibrated defaults used
// throughout the experiments.
func NewFullProfiler() *FullProfiler {
	return &FullProfiler{
		ReplayPassesBase:     4,
		ExtraPassesTensor:    3,
		SaveRestoreSeconds:   0.012,
		PerInvocationSeconds: 0.003,
		SuperlinearAt:        60000,
	}
}

// Name implements Profiler.
func (f *FullProfiler) Name() string { return "nsight-full" }

// Profile implements Profiler: collects every characteristic for every
// invocation and models the multi-pass replay cost.
func (f *FullProfiler) Profile(w *cudamodel.Workload, hw *gpu.Model) (*Profile, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p := &Profile{
		Workload:  w.Name,
		Suite:     w.Suite,
		Tool:      f.Name(),
		Collected: cudamodel.CharacteristicNames(),
		Records:   make([]Record, len(w.Invocations)),
	}
	var wall float64
	for i := range w.Invocations {
		inv := &w.Invocations[i]
		p.Records[i] = Record{
			Kernel:  inv.Kernel,
			Index:   inv.Index,
			Seq:     inv.Seq,
			CTASize: inv.CTASize(),
			Chars:   inv.Chars,
		}
		passes := f.ReplayPassesBase
		if inv.Hidden.TensorFraction > 0 {
			passes += f.ExtraPassesTensor
		}
		kernelSeconds := hw.Seconds(hw.Cycles(inv))
		// Growth of the report database slows every subsequent invocation.
		growth := 1 + float64(i)/f.SuperlinearAt
		wall += (kernelSeconds+f.SaveRestoreSeconds)*float64(passes)*growth +
			f.PerInvocationSeconds*growth
	}
	p.WallSeconds = wall
	return p, nil
}

// --- Instruction-count (NVBit-style) profiler -------------------------------

// InstructionCountProfiler collects only the dynamic instruction count, like
// NVBit instrumentation driving Sieve.
type InstructionCountProfiler struct {
	// InstrumentationOverhead is the relative kernel slowdown of counting
	// instructions inline (NVBit-style SASS injection).
	InstrumentationOverhead float64
	// PerInvocationSeconds is the fixed per-launch bookkeeping cost.
	PerInvocationSeconds float64
}

// NewInstructionCountProfiler returns an InstructionCountProfiler with the
// calibrated defaults used throughout the experiments.
func NewInstructionCountProfiler() *InstructionCountProfiler {
	return &InstructionCountProfiler{
		InstrumentationOverhead: 1.0,
		PerInvocationSeconds:    0.001,
	}
}

// Name implements Profiler.
func (n *InstructionCountProfiler) Name() string { return "nvbit-instcount" }

// Profile implements Profiler: records kernel name, invocation ID, CTA size
// and instruction count only (Section III-A), in a single instrumented run.
func (n *InstructionCountProfiler) Profile(w *cudamodel.Workload, hw *gpu.Model) (*Profile, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p := &Profile{
		Workload:  w.Name,
		Suite:     w.Suite,
		Tool:      n.Name(),
		Collected: []string{"instruction_count"},
		Records:   make([]Record, len(w.Invocations)),
	}
	var wall float64
	for i := range w.Invocations {
		inv := &w.Invocations[i]
		p.Records[i] = Record{
			Kernel:  inv.Kernel,
			Index:   inv.Index,
			Seq:     inv.Seq,
			CTASize: inv.CTASize(),
			Chars:   cudamodel.Characteristics{InstructionCount: inv.Chars.InstructionCount},
		}
		kernelSeconds := hw.Seconds(hw.Cycles(inv))
		wall += kernelSeconds*(1+n.InstrumentationOverhead) + n.PerInvocationSeconds
	}
	p.WallSeconds = wall
	return p, nil
}

// Interface conformance checks.
var (
	_ Profiler = (*FullProfiler)(nil)
	_ Profiler = (*InstructionCountProfiler)(nil)
)
