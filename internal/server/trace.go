// Request tracing in two tiers. Every API request is timed stage by stage
// into a fixed per-request array — decode, cache lookup, worker-slot wait,
// flight join/lead, compute, peer proxy, response write — and that array
// alone feeds the sieved_stage_seconds histograms and a small summary in the
// trace store. Only a request whose api.TraceHeader flags mark it sampled
// ("<id>-01") also runs under an obs.Collector, so its full span tree, the
// sampling pipeline's own spans included, is kept for GET /debug/traces/{id}.
// The trace id (minted here when absent) is echoed on the response and rides
// proxy and fetch-and-fill hops together with its flag, so one id names the
// request on every replica it touched and an unsampled hop stays unsampled
// on the owner. The store keeps sampled trees apart from the per-request
// summaries, so unsampled traffic cannot evict them.
package server

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/client"
	"github.com/gpusampling/sieve/internal/obs"
)

// stage is one of the seven serving stages. A stage's attribution is
// exclusive: its duration minus the time of stages nested in it, so the
// stages partition a request's wall time without double counting. A
// follower's flight wait has no nested stages — its whole wait is flight
// time — while a leader's flight contains its slot and compute stages,
// leaving only coordination overhead attributed to flight.
type stage uint8

const (
	stageDecode  stage = iota // body read + request validation
	stageCache                // content-hash cache lookup
	stageSlot                 // worker-slot wait (admission control)
	stageFlight               // coalesced-computation wait
	stageCompute              // sampling pipeline + plan marshal
	stageProxy                // peer hop (proxied sample or plan fetch)
	stageWrite                // response serialization
	numStages
)

var stageNames = [numStages]string{"decode", "cache", "slot", "flight", "compute", "proxy", "write"}

func (st stage) String() string { return stageNames[st] }

// requestTrace is one request's trace handle, carried on the request context
// so every stage finds it, and, once finished, its entry in the trace store.
type requestTrace struct {
	id      string
	sampled bool
	method  string
	path    string
	start   time.Time

	// Live stage accounting. A flight leader's detached computation adds its
	// slot and compute time from its own goroutine, hence the atomics;
	// attributed sums every stage's time so far, so a stage can subtract the
	// time of the stages nested in it.
	live       [numStages]atomic.Int64
	entered    [numStages]atomic.Bool
	attributed atomic.Int64

	// Sampled requests only: the collector and root span while the request
	// runs, the frozen span tree once it finished.
	collector *obs.Collector
	root      *obs.Span
	report    *obs.Report

	// Set by finishTrace (and seq by the store) before the trace is published;
	// read-only afterwards.
	seq        uint64
	status     int
	durationNS int64
	stageNS    [numStages]int64
	stageSet   uint8 // bit st set when the request entered stage st
}

// traceCtxKey carries the *requestTrace on a request context.
type traceCtxKey struct{}

// traceFrom returns the context's trace handle (nil for an internal call
// without a handler).
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

// sampledFlag reports whether an api.TraceHeader value's flags byte, the
// token after the id, marks the request sampled: bit 0 set, as in "-01". A
// bare id carries no flags and is unsampled.
func sampledFlag(v string) bool {
	_, flags, ok := strings.Cut(strings.TrimSpace(v), "-")
	if !ok {
		return false
	}
	flags, _, _ = strings.Cut(flags, "-")
	f, err := strconv.ParseUint(flags, 16, 8)
	return err == nil && f&1 == 1
}

// hopHeader is the api.TraceHeader value a peer hop carries: the id with
// this request's own flag, so the owner samples exactly when this replica
// does.
func (t *requestTrace) hopHeader() string {
	if t.sampled {
		return t.id + "-01"
	}
	return t.id + "-00"
}

// startTrace opens the request's trace: the id from the incoming
// api.TraceHeader when valid, a freshly minted one otherwise, sampled only
// when a valid id comes with the sampled flag. The id is echoed on the
// response header immediately (before any WriteHeader). The returned context
// carries the trace handle and, for a sampled request, the collector and its
// root "request" span.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request) (context.Context, *requestTrace) {
	hdr := r.Header.Get(api.TraceHeader)
	tr := &requestTrace{
		id:     client.ParseTraceHeader(hdr),
		method: r.Method,
		path:   r.URL.Path,
		start:  time.Now(),
	}
	tr.sampled = tr.id != "" && sampledFlag(hdr)
	if tr.id == "" {
		tr.id = client.NewTraceID()
	}
	ctx := r.Context()
	if tr.sampled {
		tr.collector = obs.New()
		ctx, tr.root = obs.StartSpan(obs.WithCollector(ctx, tr.collector), "request")
		tr.root.SetAttr("trace_id", tr.id)
		tr.root.SetAttr("method", r.Method)
		tr.root.SetAttr("path", r.URL.Path)
		if fwd := r.Header.Get(forwardedHeader); fwd != "" {
			tr.root.SetAttr("forwarded_by", fwd)
		}
	}
	w.Header().Set(api.TraceHeader, tr.id)
	return context.WithValue(ctx, traceCtxKey{}, tr), tr
}

// finishTrace freezes the request's stage times into its summary, feeds them
// to the sieved_stage_seconds histograms, snapshots a sampled request's span
// tree, and publishes the trace to the store.
func (s *Server) finishTrace(tr *requestTrace, status int, d time.Duration) {
	tr.status = status
	tr.durationNS = d.Nanoseconds()
	for st := range tr.live {
		if tr.entered[st].Load() {
			tr.stageNS[st] = tr.live[st].Load()
			tr.stageSet |= 1 << st
		}
	}
	s.metrics.observeStages(tr)
	if tr.sampled {
		tr.root.SetAttr("status", status)
		tr.root.End()
		tr.report = tr.collector.Report()
		tr.collector, tr.root = nil, nil
	}
	s.traces.put(tr)
}

// traced wraps a serve function with the request accounting every API
// handler shares: the request counter, the trace lifecycle, and the latency
// observation for every terminal status.
func (s *Server) traced(serve func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Requests.Add(1)
		ctx, tr := s.startTrace(w, r)
		status := serve(w, r.WithContext(ctx))
		d := time.Since(tr.start)
		s.metrics.observe(status, d)
		s.finishTrace(tr, status, d)
	}
}

// stageTimer times one stage of one request; the zero value (a context
// without a trace) records nothing.
type stageTimer struct {
	tr     *requestTrace
	st     stage
	start  time.Time
	before int64 // tr.attributed at start
	span   *obs.Span
}

// startStage opens stage st on the context's request. Only a sampled request
// also opens a span, on the returned context, so stages and pipeline spans
// started under it nest in the tree.
func startStage(ctx context.Context, st stage) (context.Context, stageTimer) {
	tr := traceFrom(ctx)
	if tr == nil {
		return ctx, stageTimer{}
	}
	t := stageTimer{tr: tr, st: st, start: time.Now(), before: tr.attributed.Load()}
	if tr.sampled {
		ctx, t.span = obs.StartSpan(ctx, stageNames[st])
	}
	return ctx, t
}

// end closes the stage and attributes its exclusive time: its duration minus
// the time stages nested in it attributed meanwhile.
func (t stageTimer) end() {
	if t.tr == nil {
		return
	}
	own := time.Since(t.start).Nanoseconds() - (t.tr.attributed.Load() - t.before)
	if own < 0 {
		own = 0
	}
	t.tr.live[t.st].Add(own)
	t.tr.entered[t.st].Store(true)
	t.tr.attributed.Add(own)
	t.span.End()
}

// traceRing is a bounded lock-free ring of finished traces: writers claim
// slots with an atomic counter and publish with an atomic pointer store,
// readers scan the slots. Once full, each new trace overwrites the oldest.
type traceRing struct {
	slots []atomic.Pointer[requestTrace]
	next  atomic.Uint64
}

func (r *traceRing) put(t *requestTrace) {
	n := r.next.Add(1)
	r.slots[(n-1)%uint64(len(r.slots))].Store(t)
}

// traceStore holds finished traces in two rings of the configured capacity:
// every request's summary, and apart from them the span trees of sampled
// requests, so memory is bounded and unsampled traffic cannot evict a
// sampled tree. Reads never block the request path.
type traceStore struct {
	seq     atomic.Uint64
	recent  traceRing // every request
	sampled traceRing // sampled requests, span tree included
}

func newTraceStore(capacity int) *traceStore {
	return &traceStore{
		recent:  traceRing{slots: make([]atomic.Pointer[requestTrace], capacity)},
		sampled: traceRing{slots: make([]atomic.Pointer[requestTrace], capacity)},
	}
}

// put publishes a finished trace: to the summaries, and to the sampled ring
// when it kept a span tree.
func (ts *traceStore) put(t *requestTrace) {
	if ts == nil || len(ts.recent.slots) == 0 {
		return
	}
	t.seq = ts.seq.Add(1)
	ts.recent.put(t)
	if t.report != nil {
		ts.sampled.put(t)
	}
}

// get returns the resident trace with the given id (the newest one when an
// id was reused), or nil. A sampled trace outlives its summary in the
// sampled ring.
func (ts *traceStore) get(id string) *requestTrace {
	if ts == nil {
		return nil
	}
	var best *requestTrace
	for _, r := range []*traceRing{&ts.recent, &ts.sampled} {
		for i := range r.slots {
			if t := r.slots[i].Load(); t != nil && t.id == id && (best == nil || t.seq > best.seq) {
				best = t
			}
		}
	}
	return best
}

// traceListN bounds the recent and slowest lists of GET /debug/traces.
const traceListN = 16

// list snapshots the summaries: the resident count, the most recent traces
// (newest first) and the slowest (longest first).
func (ts *traceStore) list() (stored int, recent, slowest []*requestTrace) {
	if ts == nil {
		return 0, nil, nil
	}
	all := make([]*requestTrace, 0, len(ts.recent.slots))
	for i := range ts.recent.slots {
		if t := ts.recent.slots[i].Load(); t != nil {
			all = append(all, t)
		}
	}
	stored = len(all)
	sort.Slice(all, func(a, b int) bool { return all[a].seq > all[b].seq })
	recent = append(recent, all[:min(traceListN, len(all))]...)
	slow := append([]*requestTrace(nil), all...)
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
func (t *requestTrace) summary() api.TraceSummary {
	return api.TraceSummary{
		TraceID:     t.id,
		Method:      t.method,
		Path:        t.path,
		Status:      t.status,
		StartUnixNS: t.start.UnixNano(),
		DurationNS:  t.durationNS,
	}
}

// stageMap renders the entered stages' exclusive nanoseconds by stage name.
func (t *requestTrace) stageMap() map[string]int64 {
	m := make(map[string]int64)
	for st, ns := range t.stageNS {
		if t.stageSet&(1<<st) != 0 {
			m[stageNames[st]] = ns
		}
	}
	return m
}

// toAPISpans converts an obs span forest into the wire form.
func toAPISpans(spans []*obs.SpanReport) []*api.TraceSpan {
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
		Capacity: len(s.traces.recent.slots),
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

// handleTraceGet answers GET /debug/traces/{id}: the trace document — the
// span tree is empty unless the request was sampled — or a sampled
// request's span tree as Chrome trace-event JSON with ?format=chrome.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t := s.traces.get(id)
	if t == nil {
		writeJSON(w, http.StatusNotFound, &api.Error{Message: "no such trace (evicted from the bounded store, or never seen by this replica)"})
		return
	}
	var spans []*obs.SpanReport
	if t.report != nil {
		spans = t.report.Spans
	}
	if r.URL.Query().Get("format") == "chrome" {
		if t.report == nil {
			writeJSON(w, http.StatusNotFound, &api.Error{Message: "trace not sampled: only its summary is kept (send " + api.TraceHeader + ": <id>-01 to keep the span tree)"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = t.report.WriteTrace(w)
		return
	}
	writeJSON(w, http.StatusOK, api.Trace{
		TraceSummary: t.summary(),
		Replica:      s.selfURL(),
		StageNS:      t.stageMap(),
		Spans:        toAPISpans(spans),
	})
}
