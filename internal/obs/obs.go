// Package obs is the pipeline's zero-dependency observability layer:
// context-propagated stage spans, exportable as a structured Report (JSON and
// Chrome trace_viewer trace-event JSON), and log-bucketed latency histograms.
//
// The design mirrors how the paper accounts for Sieve's cost (profiling
// overhead, per-stage work, sampled-vs-golden error, Sections V–VI): every
// run of the sampling pipeline should be able to explain where its time and
// its samples went. A Collector travels in the context.Context the compute
// stack already threads (core.StratifyContext, core.StratifyStreamContext,
// kde.GridContext, pks.SelectContext); each stage opens a Span, hangs
// counters and key/value attributes off it, and closes it. When no Collector
// is attached every call is a no-op — StartSpan returns a nil *Span whose
// methods are nil-receiver safe — so un-instrumented runs pay one context
// lookup per stage and produce byte-identical output.
//
// Typical use:
//
//	c := obs.New()
//	ctx := obs.WithCollector(context.Background(), c)
//	plan, err := sieve.SampleContext(ctx, rows, opts)
//	rep := c.Report()
//	rep.WriteJSON(os.Stdout)   // structured stage report
//	rep.WriteTrace(f)          // chrome://tracing / Perfetto flamegraph
package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed pipeline stage: wall-clock interval, counters, key/value
// attributes, and nested child spans. All methods are safe on a nil receiver
// (the disabled-collector case) and safe for concurrent use — parallel
// workers may annotate sibling spans under one parent.
type Span struct {
	collector *Collector
	name      string
	start     time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	counters map[string]int64
	children []*Span
}

// Name returns the span's stage name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// End closes the span, fixing its duration. Ending twice keeps the first end
// time; a span never ended is closed at report time.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.mu.Unlock()
}

// SetAttr records a key/value attribute. Later writes to the same key win at
// report time; keys are reported in insertion order of first write.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Add increments a named counter on the span.
func (s *Span) Add(counter string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[counter] += delta
	s.mu.Unlock()
}

// Active reports whether the span is recording. Use it to gate attribute
// computations that are only worth doing when a collector is attached.
func (s *Span) Active() bool { return s != nil }

// child creates and attaches a sub-span.
func (s *Span) child(name string) *Span {
	c := &Span{collector: s.collector, name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Collector accumulates one run's spans. Create with New, attach
// with WithCollector, and snapshot with Report. A Collector may be shared by
// concurrent pipeline stages; it must not be reused across runs whose reports
// should stay separate.
type Collector struct {
	start time.Time

	mu    sync.Mutex
	roots []*Span
}

// New returns an empty Collector.
func New() *Collector {
	return &Collector{start: time.Now()}
}

// root creates and attaches a top-level span.
func (c *Collector) root(name string) *Span {
	s := &Span{collector: c, name: name, start: time.Now()}
	c.mu.Lock()
	c.roots = append(c.roots, s)
	c.mu.Unlock()
	return s
}

// ctxKey keys the collector and current span in a context.Context.
type ctxKey int

const (
	collectorKey ctxKey = iota
	spanKey
)

// WithCollector attaches the collector to the context. A nil collector
// returns ctx unchanged (explicitly disabled instrumentation).
func WithCollector(ctx context.Context, c *Collector) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, collectorKey, c)
}

// FromContext returns the attached Collector, or nil when instrumentation is
// disabled.
func FromContext(ctx context.Context) *Collector {
	c, _ := ctx.Value(collectorKey).(*Collector)
	return c
}

// StartSpan opens a stage span nested under the context's current span (or as
// a root span) and returns a derived context carrying it. With no Collector
// attached it returns ctx unchanged and a nil *Span: every Span method is a
// no-op, so call sites need no conditionals.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	c := FromContext(ctx)
	if c == nil {
		return ctx, nil
	}
	var s *Span
	if parent, _ := ctx.Value(spanKey).(*Span); parent != nil {
		s = parent.child(name)
	} else {
		s = c.root(name)
	}
	return context.WithValue(ctx, spanKey, s), s
}

// snapshotSpan freezes one span (and its subtree) into report form. Unended
// spans are closed at now.
func snapshotSpan(s *Span, origin, now time.Time) *SpanReport {
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = now
	}
	attrs := make(map[string]any, len(s.attrs))
	for _, a := range s.attrs {
		attrs[a.Key] = a.Value
	}
	var counters map[string]int64
	if len(s.counters) > 0 {
		counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			counters[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	r := &SpanReport{
		Name:       s.name,
		StartNS:    s.start.Sub(origin).Nanoseconds(),
		DurationNS: end.Sub(s.start).Nanoseconds(),
		Attrs:      attrs,
		Counters:   counters,
	}
	if r.DurationNS < 0 {
		r.DurationNS = 0
	}
	// Children report in start order so the tree reads chronologically even
	// when parallel workers attached them out of order.
	sort.SliceStable(children, func(a, b int) bool { return children[a].start.Before(children[b].start) })
	for _, c := range children {
		r.Children = append(r.Children, snapshotSpan(c, origin, now))
	}
	return r
}

// Report snapshots the collector's span forest (chronological). The collector
// remains usable afterwards; spans still open are reported as ending now.
func (c *Collector) Report() *Report {
	if c == nil {
		return &Report{}
	}
	now := time.Now()
	c.mu.Lock()
	roots := append([]*Span(nil), c.roots...)
	c.mu.Unlock()
	sort.SliceStable(roots, func(a, b int) bool { return roots[a].start.Before(roots[b].start) })

	rep := &Report{}
	for _, s := range roots {
		rep.Spans = append(rep.Spans, snapshotSpan(s, c.start, now))
	}
	return rep
}
