package sieve

import (
	"context"

	"github.com/gpusampling/sieve/internal/obs"
)

// Observability. Sieve's compute stack (stratification, KDE splitting, PKS
// k-sweeps, streaming ingestion) is instrumented with nested stage spans that
// activate only when a Collector rides the context:
//
//	col := sieve.NewCollector()
//	ctx := sieve.WithCollector(context.Background(), col)
//	plan, _ := sieve.SampleContext(ctx, rows, sieve.Options{})
//	col.Report().WriteJSON(os.Stdout) // or WriteTrace for chrome://tracing
//
// Without a collector every instrumentation site reduces to one context
// lookup and the emitted plan is byte-identical — a guarantee pinned by
// TestCollectorDoesNotChangePlans.

// Collector gathers stage spans for one or more runs.
type Collector = obs.Collector

// Span is one timed pipeline stage with attributes, counters and children.
// A nil *Span (no collector attached) is valid and all methods are no-ops.
type Span = obs.Span

// Report is a frozen snapshot of collected spans, exportable as JSON
// (WriteJSON) or Chrome trace_viewer trace events (WriteTrace).
type Report = obs.Report

// SpanReport is one span in a Report's tree.
type SpanReport = obs.SpanReport

// NewCollector returns an empty span collector.
func NewCollector() *Collector { return obs.New() }

// WithCollector attaches a collector to ctx; pipeline stages called with the
// derived context record spans into it. A nil collector returns ctx unchanged.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	return obs.WithCollector(ctx, c)
}

// StartSpan opens a span named name under the current span (or as a root) if
// ctx carries a collector; otherwise it returns ctx unchanged and a nil span
// whose methods are no-ops. Use it to wrap caller-side stages so they nest
// with Sieve's built-in instrumentation.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.StartSpan(ctx, name)
}
