package sieve

import (
	"io"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/profiler"
)

// RowSource yields profile rows one at a time in strictly ascending Index
// order and returns io.EOF after the last row. It is the Source of a
// MethodProfile planned in stream mode (MethodOptions.Stream), which also
// streams a profile's in-memory Rows: one pass feeds per-kernel online
// accumulators and deterministic seeded reservoirs, so memory is
// O(kernels × ReservoirSize) no matter how many invocations stream by.
// Stream mode ignores Parallelism, so a stream plan has the same bytes at any
// worker count. Whenever every kernel fits its reservoir the plan is
// byte-identical to the non-stream sieve plan on the same rows; otherwise it
// is marked Sampled (exact totals and representatives, partial membership
// lists, reservoir-sampled Tier-3 splits). See docs/streaming.md.
type RowSource = core.RowSource

// CSVSource streams a profile CSV (the WriteProfileCSV format) row by row
// without materializing the table: the end-to-end bounded-memory input for
// profile logs too large to hold in memory. It reads the header at once and
// reports a malformed one; a malformed row is reported by the pass that
// reads it.
func CSVSource(r io.Reader) (RowSource, error) {
	sc, err := profiler.NewCSVScanner(r)
	if err != nil {
		return nil, err
	}
	return func() (InvocationProfile, error) {
		if !sc.Next() {
			if err := sc.Err(); err != nil {
				return InvocationProfile{}, err
			}
			return InvocationProfile{}, io.EOF
		}
		rec := sc.Record()
		return rec.Row(), nil
	}, nil
}
