// Distributed request tracing: every API request runs under an obs.Collector
// whose span tree covers the full serving path — decode, cache lookup,
// worker-slot wait, flight join/lead, compute, peer proxy, response write.
// The trace id arrives in the api.TraceHeader request header (minted here
// when absent), is echoed on the response, and rides proxy and
// fetch-and-fill hops to peers, so one id names the request on every replica
// it touched. Completed traces land in a bounded lock-free ring store served
// by GET /debug/traces (recent + slowest) and GET /debug/traces/{id} (full
// tree, ?format=chrome for a trace-viewer flamegraph), and the per-stage
// durations feed the sieved_stage_seconds Prometheus histograms.
package server

import (
	"context"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/client"
	"github.com/gpusampling/sieve/internal/obs"
)

// The stage taxonomy: every span named after a stage contributes its
// exclusive time (own duration minus nested stage spans) to that stage's
// attribution, so the stages partition a request's wall time without double
// counting. A follower's flight span has no stage children — its whole wait
// is flight time — while a leader's flight span contains the slot and
// compute stages, leaving only coordination overhead attributed to flight.
const (
	stageDecode  = "decode"  // body read + request validation
	stageCache   = "cache"   // content-hash cache lookup
	stageSlot    = "slot"    // worker-slot wait (admission control)
	stageFlight  = "flight"  // coalesced-computation wait
	stageCompute = "compute" // sampling pipeline + plan marshal
	stageProxy   = "proxy"   // peer hop (proxied sample or plan fetch)
	stageWrite   = "write"   // response serialization
)

// traceStages is the closed set of stage names (attribution ignores other
// span names, e.g. the sampler.plan subtree nested under compute).
var traceStages = map[string]bool{
	stageDecode:  true,
	stageCache:   true,
	stageSlot:    true,
	stageFlight:  true,
	stageCompute: true,
	stageProxy:   true,
	stageWrite:   true,
}

// requestTrace is one in-progress request's trace handle, carried on the
// request context so the proxy path can propagate the id and the flight
// table can link followers to their leader's trace.
type requestTrace struct {
	id        string
	collector *obs.Collector
	root      *obs.Span
	startWall time.Time
	method    string
	path      string
}

// traceCtxKey carries the *requestTrace on a request context.
type traceCtxKey struct{}

// traceFrom returns the context's trace handle (nil when the request is not
// traced — crypto/rand failure, or an internal call without a handler).
func traceFrom(ctx context.Context) *requestTrace {
	t, _ := ctx.Value(traceCtxKey{}).(*requestTrace)
	return t
}

// traceID returns the context's trace id ("" untraced).
func traceID(ctx context.Context) string {
	if t := traceFrom(ctx); t != nil {
		return t.id
	}
	return ""
}

// startTrace opens a trace for the request: the id from the incoming
// api.TraceHeader when valid, a freshly minted one otherwise. The id is
// echoed on the response header immediately (before any WriteHeader), and
// the returned context carries the collector, the root "request" span and
// the trace handle.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request) (context.Context, *requestTrace) {
	id := client.ParseTraceHeader(r.Header.Get(api.TraceHeader))
	if id == "" {
		id = client.NewTraceID()
		if id == "" {
			return r.Context(), nil
		}
	}
	col := obs.New()
	ctx := obs.WithCollector(r.Context(), col)
	ctx, root := obs.StartSpan(ctx, "request")
	root.SetAttr("trace_id", id)
	root.SetAttr("method", r.Method)
	root.SetAttr("path", r.URL.Path)
	if fwd := r.Header.Get(forwardedHeader); fwd != "" {
		root.SetAttr("forwarded_by", fwd)
	}
	tr := &requestTrace{
		id:        id,
		collector: col,
		root:      root,
		startWall: time.Now(),
		method:    r.Method,
		path:      r.URL.Path,
	}
	w.Header().Set(api.TraceHeader, id)
	return context.WithValue(ctx, traceCtxKey{}, tr), tr
}

// finishTrace closes the root span, snapshots the span tree into the trace
// store, and feeds the per-stage durations into the sieved_stage_seconds
// histograms. Safe on a nil trace (untraced request).
func (s *Server) finishTrace(tr *requestTrace, status int) {
	if tr == nil {
		return
	}
	tr.root.SetAttr("status", status)
	tr.root.End()
	rep := tr.collector.Report()
	var durationNS int64
	if len(rep.Spans) > 0 {
		durationNS = rep.Spans[0].DurationNS
	}
	stages := stageSums(rep.Spans)
	s.metrics.observeStages(stages)
	s.traces.put(&storedTrace{
		id:          tr.id,
		method:      tr.method,
		path:        tr.path,
		status:      status,
		startUnixNS: tr.startWall.UnixNano(),
		durationNS:  durationNS,
		stages:      stages,
		report:      rep,
	})
}

// traced wraps a serve function with the request accounting every API
// handler shares: the request counter, the trace lifecycle, and the latency
// observation for every terminal status.
func (s *Server) traced(serve func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.Requests.Add(1)
		ctx, tr := s.startTrace(w, r)
		status := serve(w, r.WithContext(ctx))
		s.metrics.observe(status, time.Since(start))
		s.finishTrace(tr, status)
	}
}

// stageSums attributes the span forest's wall time to the stage taxonomy:
// each stage span contributes its duration minus the durations of stage
// spans directly nested in it (exclusive time), so a leader's flight span
// does not re-count the slot wait and compute it contains.
func stageSums(spans []*obs.SpanReport) map[string]int64 {
	sums := make(map[string]int64)
	var walk func(sp *obs.SpanReport)
	walk = func(sp *obs.SpanReport) {
		if traceStages[sp.Name] {
			own := sp.DurationNS
			for _, c := range sp.Children {
				if traceStages[c.Name] {
					own -= c.DurationNS
				}
			}
			if own < 0 {
				own = 0
			}
			sums[sp.Name] += own
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, sp := range spans {
		walk(sp)
	}
	return sums
}

// storedTrace is one completed request in the trace store.
type storedTrace struct {
	seq         uint64
	id          string
	method      string
	path        string
	status      int
	startUnixNS int64
	durationNS  int64
	stages      map[string]int64
	report      *obs.Report
}

// traceStore is a bounded lock-free ring of completed traces: writers claim
// slots with an atomic sequence counter and publish with an atomic pointer
// store, readers scan the slots. Once full, each new trace overwrites the
// oldest slot, so memory is bounded by the configured capacity and reads
// never block the request path.
type traceStore struct {
	slots []atomic.Pointer[storedTrace]
	next  atomic.Uint64
}

func newTraceStore(capacity int) *traceStore {
	return &traceStore{slots: make([]atomic.Pointer[storedTrace], capacity)}
}

// put publishes a completed trace, overwriting the oldest slot when full.
func (ts *traceStore) put(t *storedTrace) {
	if ts == nil || len(ts.slots) == 0 || t == nil {
		return
	}
	t.seq = ts.next.Add(1)
	ts.slots[(t.seq-1)%uint64(len(ts.slots))].Store(t)
}

// get returns the resident trace with the given id (the newest one when an
// id was reused), or nil.
func (ts *traceStore) get(id string) *storedTrace {
	if ts == nil {
		return nil
	}
	var best *storedTrace
	for i := range ts.slots {
		if t := ts.slots[i].Load(); t != nil && t.id == id && (best == nil || t.seq > best.seq) {
			best = t
		}
	}
	return best
}

// traceListN bounds the recent and slowest lists of GET /debug/traces.
const traceListN = 16

// list snapshots the store: the resident count, the most recent traces
// (newest first) and the slowest (longest first).
func (ts *traceStore) list() (stored int, recent, slowest []*storedTrace) {
	if ts == nil {
		return 0, nil, nil
	}
	all := make([]*storedTrace, 0, len(ts.slots))
	for i := range ts.slots {
		if t := ts.slots[i].Load(); t != nil {
			all = append(all, t)
		}
	}
	stored = len(all)
	sort.Slice(all, func(a, b int) bool { return all[a].seq > all[b].seq })
	recent = append(recent, all[:min(traceListN, len(all))]...)
	slow := append([]*storedTrace(nil), all...)
	sort.Slice(slow, func(a, b int) bool {
		if slow[a].durationNS != slow[b].durationNS {
			return slow[a].durationNS > slow[b].durationNS
		}
		return slow[a].seq > slow[b].seq
	})
	slowest = append(slowest, slow[:min(traceListN, len(slow))]...)
	return stored, recent, slowest
}

// summary renders the store entry as its wire listing row.
func (t *storedTrace) summary() api.TraceSummary {
	return api.TraceSummary{
		TraceID:     t.id,
		Method:      t.method,
		Path:        t.path,
		Status:      t.status,
		StartUnixNS: t.startUnixNS,
		DurationNS:  t.durationNS,
	}
}

// toAPISpans converts an obs span forest into the wire form.
func toAPISpans(spans []*obs.SpanReport) []*api.TraceSpan {
	if len(spans) == 0 {
		return nil
	}
	out := make([]*api.TraceSpan, len(spans))
	for i, sp := range spans {
		out[i] = &api.TraceSpan{
			Name:       sp.Name,
			StartNS:    sp.StartNS,
			DurationNS: sp.DurationNS,
			Attrs:      sp.Attrs,
			Counters:   sp.Counters,
			Children:   toAPISpans(sp.Children),
		}
	}
	return out
}

// handleTraces answers GET /debug/traces: the recent and slowest resident
// traces. Like /debug/metrics, the debug surface does not count toward the
// request metrics.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	stored, recent, slowest := s.traces.list()
	out := api.TraceList{
		Stored:   stored,
		Capacity: len(s.traces.slots),
		Recent:   make([]api.TraceSummary, 0, len(recent)),
		Slowest:  make([]api.TraceSummary, 0, len(slowest)),
	}
	for _, t := range recent {
		out.Recent = append(out.Recent, t.summary())
	}
	for _, t := range slowest {
		out.Slowest = append(out.Slowest, t.summary())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTraceGet answers GET /debug/traces/{id}: the full trace document,
// or the same span tree as Chrome trace-event JSON with ?format=chrome.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t := s.traces.get(id)
	if t == nil {
		writeJSON(w, http.StatusNotFound, &api.Error{Message: "no such trace (evicted from the bounded store, or never seen by this replica)"})
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = t.report.WriteTrace(w)
		return
	}
	out := api.Trace{
		TraceSummary: t.summary(),
		Replica:      s.selfURL(),
		StageNS:      t.stages,
		Spans:        toAPISpans(t.report.Spans),
	}
	writeJSON(w, http.StatusOK, out)
}
