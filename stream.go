package sieve

import (
	"context"
	"io"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/profiler"
)

// StreamOptions configures SampleStream/SampleCSV: the embedded Options plus
// the per-kernel reservoir size, priority-hash seed and dispatch batch size
// that bound the streaming pass. The zero value uses the paper's sampling
// defaults with a 4096-row reservoir per kernel.
type StreamOptions = core.StreamOptions

// RowSource yields profile rows one at a time in strictly ascending Index
// order and returns io.EOF after the last row.
type RowSource = core.RowSource

// SliceSource adapts an in-memory profile into a RowSource, for callers that
// want streaming semantics (or its regression tests) over materialized rows.
func SliceSource(rows []InvocationProfile) RowSource { return core.SliceSource(rows) }

// SampleStream is the bounded-memory analogue of Sample: one pass over the
// source feeds per-kernel online accumulators and deterministic seeded
// reservoirs, so memory is O(kernels × ReservoirSize) no matter how many
// invocations stream by. Whenever every kernel fits its reservoir the plan is
// byte-identical to Sample on the same rows, at any Parallelism; otherwise the
// plan is marked Sampled (exact totals and representatives, partial membership
// lists, reservoir-sampled Tier-3 splits). See docs/streaming.md.
func SampleStream(next RowSource, opts StreamOptions) (*Plan, error) {
	return SampleStreamContext(context.Background(), next, opts)
}

// SampleStreamContext is SampleStream with cancellation: the single ingestion
// pass observes ctx between dispatch batches and the stratification phase
// observes it between kernels, so a cancelled or timed-out caller stops the
// stream mid-pass, drains the ingestion shards, and receives ctx.Err().
func SampleStreamContext(ctx context.Context, next RowSource, opts StreamOptions) (*Plan, error) {
	return core.StratifyStreamContext(ctx, next, opts)
}

// SampleCSV streams a profile CSV (the WriteProfileCSV format) straight into
// a sampling plan without materializing the table — the end-to-end
// bounded-memory path for profile logs too large to hold in memory.
func SampleCSV(r io.Reader, opts StreamOptions) (*Plan, error) {
	return SampleCSVContext(context.Background(), r, opts)
}

// SampleCSVContext is SampleCSV with cancellation, observed between
// ingestion batches and kernels exactly as SampleStreamContext.
func SampleCSVContext(ctx context.Context, r io.Reader, opts StreamOptions) (*Plan, error) {
	sc, err := profiler.NewCSVScanner(r)
	if err != nil {
		return nil, err
	}
	return core.StratifyStreamContext(ctx, func() (InvocationProfile, error) {
		if !sc.Next() {
			if err := sc.Err(); err != nil {
				return InvocationProfile{}, err
			}
			return InvocationProfile{}, io.EOF
		}
		rec := sc.Record()
		return rec.Row(), nil
	}, opts)
}
