package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestNilSpanIsNoOp proves the disabled-collector contract: with no Collector
// in the context, StartSpan returns the context unchanged and a nil span whose
// every method is safe.
func TestNilSpanIsNoOp(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "stage")
	if ctx2 != ctx {
		t.Fatal("StartSpan without a collector must return the context unchanged")
	}
	if sp != nil {
		t.Fatal("StartSpan without a collector must return a nil span")
	}
	if sp.Active() {
		t.Fatal("nil span must report inactive")
	}
	// All nil-receiver methods must be no-ops, not panics.
	sp.SetAttr("k", "v")
	sp.Add("n", 1)
	sp.End()
	if got := sp.Name(); got != "" {
		t.Fatalf("nil span name = %q", got)
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on a bare context must be nil")
	}
	if WithCollector(ctx, nil) != ctx {
		t.Fatal("WithCollector(nil) must return the context unchanged")
	}
}

// TestSpanNestingAndOrdering verifies the report reproduces the span tree:
// children nest under their parent, siblings report in chronological start
// order, and attributes/counters survive the snapshot.
func TestSpanNestingAndOrdering(t *testing.T) {
	c := New()
	ctx := WithCollector(context.Background(), c)

	ctx, root := StartSpan(ctx, "pipeline")
	root.SetAttr("theta", 0.4)
	root.Add("rows", 100)

	for _, name := range []string{"first", "second", "third"} {
		_, child := StartSpan(ctx, name)
		child.SetAttr("kernel", name)
		time.Sleep(time.Millisecond)
		child.End()
	}
	// A grandchild under a named child.
	cctx, child := StartSpan(ctx, "fourth")
	_, grand := StartSpan(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()

	rep := c.Report()
	if len(rep.Spans) != 1 {
		t.Fatalf("want 1 root span, got %d", len(rep.Spans))
	}
	r := rep.Spans[0]
	if r.Name != "pipeline" {
		t.Fatalf("root span name = %q", r.Name)
	}
	if r.Attrs["theta"] != 0.4 {
		t.Fatalf("root attrs = %v", r.Attrs)
	}
	if r.Counters["rows"] != 100 {
		t.Fatalf("root counters = %v", r.Counters)
	}
	if len(r.Children) != 4 {
		t.Fatalf("want 4 children, got %d", len(r.Children))
	}
	wantOrder := []string{"first", "second", "third", "fourth"}
	var lastStart int64 = -1
	for i, ch := range r.Children {
		if ch.Name != wantOrder[i] {
			t.Fatalf("child %d = %q, want %q", i, ch.Name, wantOrder[i])
		}
		if ch.StartNS < lastStart {
			t.Fatalf("children not in chronological order: %d after %d", ch.StartNS, lastStart)
		}
		lastStart = ch.StartNS
		if ch.DurationNS < 0 {
			t.Fatalf("negative duration %d", ch.DurationNS)
		}
		if ch.StartNS < r.StartNS {
			t.Fatalf("child starts before parent")
		}
	}
	if len(r.Children[3].Children) != 1 || r.Children[3].Children[0].Name != "grandchild" {
		t.Fatalf("grandchild not nested: %+v", r.Children[3])
	}
	if rep.Find("grandchild") == nil {
		t.Fatal("Find(grandchild) = nil")
	}
	if got := len(rep.FindAll("second")); got != 1 {
		t.Fatalf("FindAll(second) = %d spans", got)
	}
}

// TestSpanEndIdempotent checks that a double End keeps the first end time and
// that unended spans are closed at report time.
func TestSpanEndIdempotent(t *testing.T) {
	c := New()
	ctx := WithCollector(context.Background(), c)
	_, sp := StartSpan(ctx, "s")
	sp.End()
	first := c.Report().Spans[0].DurationNS
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if second := c.Report().Spans[0].DurationNS; second != first {
		t.Fatalf("second End changed duration: %d -> %d", first, second)
	}

	_, open := StartSpan(ctx, "open")
	_ = open
	rep := c.Report()
	if rep.Find("open").DurationNS < 0 {
		t.Fatal("open span must report a non-negative duration")
	}
}

// TestConcurrentSpans exercises the mutable surfaces from many goroutines;
// run under -race this is the concurrency regression test.
func TestConcurrentSpans(t *testing.T) {
	c := New()
	ctx := WithCollector(context.Background(), c)
	ctx, root := StartSpan(ctx, "parallel")

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, sp := StartSpan(ctx, "worker")
				sp.SetAttr("g", g)
				sp.Add("iter", 1)
				sp.End()
			}
		}(g)
	}
	// Concurrent readers while writers run.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = c.Report()
			}
		}()
	}
	wg.Wait()
	root.End()

	rep := c.Report()
	if got := len(rep.FindAll("worker")); got != 400 {
		t.Fatalf("want 400 worker spans, got %d", got)
	}
}

// TestReportJSONAndTrace validates both export formats parse back and carry
// the span data.
func TestReportJSONAndTrace(t *testing.T) {
	c := New()
	ctx := WithCollector(context.Background(), c)
	ctx, root := StartSpan(ctx, "run")
	_, child := StartSpan(ctx, "stage")
	child.SetAttr("kernel", "k1")
	child.Add("rows", 7)
	child.End()
	root.End()

	rep := c.Report()

	var jsonBuf bytes.Buffer
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if back.Find("stage") == nil {
		t.Fatal("round-tripped report lost the stage span")
	}

	var traceBuf bytes.Buffer
	if err := rep.WriteTrace(&traceBuf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBuf.Bytes(), &trace); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(trace.TraceEvents) != 2 {
		t.Fatalf("want 2 trace events, got %d", len(trace.TraceEvents))
	}
	byName := map[string]int{}
	for i, ev := range trace.TraceEvents {
		if ev.Phase != "X" {
			t.Fatalf("event %d phase = %q", i, ev.Phase)
		}
		byName[ev.Name] = i
	}
	run := trace.TraceEvents[byName["run"]]
	stage := trace.TraceEvents[byName["stage"]]
	if run.TID != stage.TID {
		t.Fatalf("nested child should share the parent lane: run tid %d, stage tid %d", run.TID, stage.TID)
	}
	if stage.TS < run.TS || stage.TS+stage.Dur > run.TS+run.Dur+1e-3 {
		t.Fatalf("stage [%g,%g] not contained in run [%g,%g]", stage.TS, stage.TS+stage.Dur, run.TS, run.TS+run.Dur)
	}
	if stage.Args["kernel"] != "k1" {
		t.Fatalf("stage args = %v", stage.Args)
	}
}

// TestTraceOverlappingSiblingsSplitLanes checks that concurrent sibling spans
// land on distinct viewer lanes (synthesized by hand-building overlapping
// intervals rather than racing real clocks).
func TestTraceOverlappingSiblingsSplitLanes(t *testing.T) {
	rep := &Report{Spans: []*SpanReport{{
		Name: "parent", StartNS: 0, DurationNS: 1000,
		Children: []*SpanReport{
			{Name: "a", StartNS: 10, DurationNS: 500},
			{Name: "b", StartNS: 20, DurationNS: 500}, // overlaps a
			{Name: "c", StartNS: 600, DurationNS: 100},
		},
	}}}
	var buf bytes.Buffer
	if err := rep.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int{}
	for _, ev := range trace.TraceEvents {
		tids[ev.Name] = ev.TID
	}
	if tids["a"] == tids["b"] {
		t.Fatalf("overlapping siblings share lane %d", tids["a"])
	}
	if tids["a"] != tids["parent"] {
		t.Fatalf("first child should nest on the parent lane: %v", tids)
	}
	if tids["c"] != tids["parent"] {
		t.Fatalf("non-overlapping later sibling should reuse the parent lane: %v", tids)
	}
}
