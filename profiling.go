package sieve

import (
	"io"

	"github.com/gpusampling/sieve/internal/profiler"
)

// ProfileInstructionCounts profiles the workload with the lightweight
// NVBit-style instruction-count profiler — Sieve's input (a single metric
// per invocation, Section III-A).
func ProfileInstructionCounts(w *Workload, hw *Hardware) (*Profile, error) {
	return profiler.InstructionCounts(w, hw)
}

// ProfileFull profiles the workload with the Nsight-style 12-metric
// profiler — PKS's input. It is substantially slower (multiple replay
// passes per invocation), which the profile's WallSeconds records.
func ProfileFull(w *Workload, hw *Hardware) (*Profile, error) {
	return profiler.Full(w, hw)
}

// ProfileTwoLevel profiles the workload with the two-level scheme Baddouh et
// al. use to curb PKS's profiling cost: full 12-metric profiling for the
// first detailedBatch invocations, then a cheap name-and-launch-dims pass
// whose characteristics are approximated from the detailed batch
// (detailedBatch ≤ 0 selects the default). Cheaper than ProfileFull, but the
// remainder of the table is an approximation.
func ProfileTwoLevel(w *Workload, hw *Hardware, detailedBatch int) (*Profile, error) {
	return profiler.TwoLevel(w, hw, detailedBatch)
}

// ReadProfileCSV parses a profile previously written with WriteProfileCSV.
func ReadProfileCSV(r io.Reader) (*Profile, error) { return profiler.ReadCSV(r) }

// WriteProfileCSV serializes a profile table as CSV, the interchange format
// between the profiling front-end and the sampling back-ends.
func WriteProfileCSV(p *Profile, w io.Writer) error { return p.WriteCSV(w) }

// FeatureRows converts a full profile into PKS's 12-dimensional feature
// rows, one per invocation in chronological order.
func FeatureRows(p *Profile) [][]float64 { return p.Features() }
