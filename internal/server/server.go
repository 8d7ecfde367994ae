// Package server implements sieved, a long-lived HTTP JSON service that
// hosts the Sieve sampling pipeline as a shared backend: many concurrent
// "give me a sampling plan for this profile" requests over one process, the
// way PKA-style profiling infrastructure is consumed.
//
// Endpoints:
//
//	POST /v1/sample        profile CSV (text/csv) or JSON envelope → sampling plan
//	POST /v1/batch         many profiles in one request → per-item plan envelopes
//	POST /v1/characterize  same input as /v1/sample → per-kernel workload characterization
//	GET  /v1/plans/{id}    content-hash-addressed plan lookup
//	GET  /healthz          liveness
//	GET  /debug/metrics    expvar counters + latency quantiles (JSON)
//	GET  /metrics          the same metrics in Prometheus text exposition format
//
// Every sampling run is bounded three ways: a worker-slot semaphore caps
// concurrent compute, a per-request timeout caps each run's wall time, and
// http.MaxBytesReader caps request bodies. Plans are cached in a
// content-hash-addressed LRU keyed by (profile source, resolved options), so
// identical requests are computed once and cache hits return byte-identical
// plan JSON.
//
// Concurrent misses on one content hash coalesce onto a single computation
// through a key-indexed in-flight table: the computation runs detached under
// its own timeout (a leader's client disconnect does not fail the
// followers), while each waiting request still honors its own context. With
// peers configured (SetPeers), a consistent-hash ring routes each content
// hash to its owning replica — non-owners proxy sample requests to the owner
// and fetch-and-fill cached plans from it, so the cluster computes each plan
// once and any replica can serve GET /v1/plans/{id}.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/cudamodel"
	"github.com/gpusampling/sieve/internal/pks"
	"github.com/gpusampling/sieve/internal/profiler"
	"github.com/gpusampling/sieve/internal/sampler"
)

// Config bounds the service. The zero value serves with sane defaults.
type Config struct {
	// MaxConcurrent is the worker-slot count: at most this many sampling or
	// characterization runs compute at once (GOMAXPROCS if zero). Further
	// requests wait for a slot until their context expires.
	MaxConcurrent int
	// RequestTimeout caps one run's compute wall time (60s if zero).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies, CSV profiles included (32 MiB if
	// zero). It is also the budget, in estimated bytes, of the cache of
	// workload profiles generated server-side: such a profile stands in for
	// an uploaded CSV body.
	MaxBodyBytes int64
	// CacheEntries bounds the plan LRU (128 if zero).
	CacheEntries int
	// MaxBatchItems caps the item count of one POST /v1/batch request (64 if
	// zero).
	MaxBatchItems int
	// Parallelism is the per-request sampling worker default when the
	// request does not choose its own (0 = GOMAXPROCS).
	Parallelism int
	// TraceEntries bounds each of the trace store's two rings behind
	// GET /debug/traces: per-request summaries, and the span trees of
	// sampled requests (256 if zero). Old entries are overwritten once a ring
	// is full.
	TraceEntries int
	// Logger, when set, receives one structured access log line per request
	// (method, path, status, duration) plus error detail for failed runs.
	// Nil disables request logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.TraceEntries <= 0 {
		c.TraceEntries = 256
	}
	return c
}

// Server hosts the sampling pipeline behind an http.Handler.
type Server struct {
	cfg     Config
	slots   chan struct{}
	cache   *planCache
	metrics *metrics
	mux     *http.ServeMux
	flights flightGroup
	traces  *traceStore
	shard   atomic.Pointer[ring] // nil = single node, everything local
	peer    *http.Client
	// profiles caches workload-mode profiles by (workload, scale, arch),
	// bounded by estimated bytes (see workloadProfile).
	profiles *lru[*sieve.MethodProfile]
	// preCompute, when set (tests only), runs at the start of every
	// coalesced computation before the worker slot is acquired, so tests can
	// hold a flight open while concurrent requests pile onto it.
	preCompute func(id string)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		slots:    make(chan struct{}, cfg.MaxConcurrent),
		cache:    newPlanCache(cfg.CacheEntries),
		profiles: newLRU[*sieve.MethodProfile](cfg.MaxBodyBytes),
		metrics:  newMetrics(),
		mux:      http.NewServeMux(),
		traces:   newTraceStore(cfg.TraceEntries),
		peer:     &http.Client{},
	}
	s.flights.onJoin = func() { s.metrics.Coalesced.Add(1) }
	s.mux.HandleFunc("POST /v1/sample", s.traced(s.serveSample))
	s.mux.HandleFunc("POST /v1/batch", s.traced(s.serveBatch))
	s.mux.HandleFunc("POST /v1/characterize", s.traced(s.serveCharacterize))
	s.mux.HandleFunc("GET /v1/plans/{id}", s.traced(s.servePlanGet))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/metrics", s.metrics.handler(s.cache.len))
	s.mux.HandleFunc("GET /metrics", s.metrics.prometheus(s.cache.len))
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	return s
}

// SetPeers (re)configures consistent-hash shard routing over the replica set.
// self is this replica's advertised base URL; peers lists the others (or the
// whole set — self is deduplicated in). An empty peer list, or a list that
// collapses to just self, disables routing: the server degrades gracefully
// to single-node operation.
func (s *Server) SetPeers(self string, peers []string) error {
	r, err := newRing(self, peers)
	if err != nil {
		return err
	}
	s.shard.Store(r)
	return nil
}

func (s *Server) shardRing() *ring { return s.shard.Load() }

// selfURL is this replica's advertised base URL ("" when no ring is
// configured).
func (s *Server) selfURL() string {
	if r := s.shardRing(); r != nil {
		return r.self
	}
	return ""
}

// handleHealthz answers GET /healthz. The JSON body reports liveness plus
// ring membership — {status, self, peers, version} — so a load generator or
// operator can discover the replica set from any one replica. Probes that
// only want the old bare-string liveness check ask with Accept: text/plain
// and get exactly "ok".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok")
		return
	}
	h := api.Health{Status: "ok", Version: api.Version}
	if ring := s.shardRing(); ring != nil {
		h.Self = ring.self
		h.Peers = append([]string(nil), ring.nodes...)
	}
	writeJSON(w, http.StatusOK, h)
}

// statusRecorder captures the response status for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards http.Flusher so handlers that stream — the per-item batch
// envelopes — still flush when wrapped by the access logger. Without this
// the wrapper swallows the interface and streamed responses buffer until the
// handler returns.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Handler returns the routed handler, wrapped in structured access logging
// when Config.Logger is set.
func (s *Server) Handler() http.Handler {
	if s.cfg.Logger == nil {
		return s.mux
	}
	log := s.cfg.Logger
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(rec, r)
		log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_ms", float64(time.Since(start))/float64(time.Millisecond))
	})
}

// Metrics exposes the counters, e.g. for global expvar publication.
func (s *Server) Metrics() *metrics { return s.metrics }

// badRequest marks an error as caller-caused (HTTP 400).
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }
func (b badRequest) Unwrap() error { return b.err }

// statusFor maps an error onto the HTTP status the API contract promises:
// oversized bodies 413, caller mistakes 400, well-formed but unusable
// profiles 422, expired deadlines 504, client-abandoned work 499 (nginx's
// convention), anything else 500.
func statusFor(err error) int {
	var tooBig *http.MaxBytesError
	var caller badRequest
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, sieve.ErrEmptyProfile), errors.Is(err, sieve.ErrSampledPlan):
		return http.StatusUnprocessableEntity
	case errors.Is(err, sieve.ErrInvalidTheta):
		return http.StatusBadRequest
	case errors.As(err, &caller):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError answers a failed request and returns the status it wrote, so
// handlers can report it to the latency breakdown.
func (s *Server) writeError(w http.ResponseWriter, err error) int {
	s.metrics.Failures.Add(1)
	status := statusFor(err)
	if s.cfg.Logger != nil {
		s.cfg.Logger.Warn("request failed", "status", status, "error", err.Error())
	}
	writeJSON(w, status, &api.Error{Message: err.Error()})
	return status
}

// bodyHintCap bounds how much of a declared Content-Length readBody allocates
// before any body byte has arrived. Past it the buffer grows only as bytes
// come in, so a client that declares a large body and sends nothing holds
// little memory.
const bodyHintCap = 1 << 20

// readBody reads the request body, capped at MaxBodyBytes (a longer body is a
// *http.MaxBytesError, answered 413). It returns the same bytes and errors
// io.ReadAll would, but a declared Content-Length (up to bodyHintCap) sizes
// the buffer up front, so an honest body costs one allocation of its own size
// instead of a doubling series of copies. The length is only a hint: a body
// shorter or longer than declared is still read whole. A body the client cut
// off before its declared length is the caller's mistake (400).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	size := int64(512) // io.ReadAll's starting size, for an unknown length
	if n := r.ContentLength; n >= 0 && n <= s.cfg.MaxBodyBytes {
		size = min(n, bodyHintCap) + 1 // +1 leaves room for the read that reports EOF
	}
	buf := make([]byte, 0, size)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF:
			return buf, nil
		case errors.Is(err, io.ErrUnexpectedEOF):
			return nil, badRequest{fmt.Errorf("read body: %w", err)}
		case err != nil:
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodeRequest reads the bounded body and normalizes both accepted shapes —
// raw CSV with query-parameter options, or the JSON envelope — into a
// SampleRequest.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*api.SampleRequest, error) {
	body, err := s.readBody(w, r)
	if err != nil {
		return nil, err
	}
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	if ct == "text/csv" || ct == "application/csv" {
		// Nothing writes to body after this, so the profile string shares its
		// bytes rather than copying a body of up to MaxBodyBytes.
		req := &api.SampleRequest{ProfileCSV: unsafe.String(unsafe.SliceData(body), len(body))}
		if err := optionsFromQuery(r.URL.Query(), &req.Options); err != nil {
			return nil, badRequest{err}
		}
		return req, nil
	}
	req := &api.SampleRequest{}
	if err := json.Unmarshal(body, req); err != nil {
		return nil, badRequest{fmt.Errorf("decode request: %w", err)}
	}
	return req, nil
}

// optionsFromQuery parses ?theta=&selection=&splitter=&parallelism=&stream=
// &reservoir_size=&seed=&arch=&method= for the raw-CSV request shape.
func optionsFromQuery(q url.Values, o *api.RequestOptions) error {
	var err error
	get := func(key string, parse func(string) error) {
		if err != nil {
			return
		}
		if v := q.Get(key); v != "" {
			if perr := parse(v); perr != nil {
				err = fmt.Errorf("query %s=%q: %w", key, v, perr)
			}
		}
	}
	get("theta", func(v string) error { f, e := strconv.ParseFloat(v, 64); o.Theta = f; return e })
	get("parallelism", func(v string) error { n, e := strconv.Atoi(v); o.Parallelism = n; return e })
	get("reservoir_size", func(v string) error { n, e := strconv.Atoi(v); o.ReservoirSize = n; return e })
	get("seed", func(v string) error { n, e := strconv.ParseUint(v, 10, 64); o.Seed = n; return e })
	get("stream", func(v string) error { b, e := strconv.ParseBool(v); o.Stream = b; return e })
	o.Selection = q.Get("selection")
	o.Splitter = q.Get("splitter")
	o.Arch = q.Get("arch")
	o.Method = q.Get("method")
	return err
}

// resolved is a fully-validated request: concrete sieve options plus the
// profile source, ready to hash and run.
type resolved struct {
	req    *api.SampleRequest
	opts   sieve.Options
	stream sieve.StreamOptions
	arch   string
	// method is the canonicalized sampling methodology ("sieve" for the
	// default / empty wire value).
	method string
}

// resolve validates the request and turns the wire options into sieve
// options. Validation failures are badRequest (400).
func (s *Server) resolve(req *api.SampleRequest) (*resolved, error) {
	if (req.ProfileCSV == "") == (req.Workload == "") {
		return nil, badRequest{errors.New("exactly one of profile_csv (or a text/csv body) and workload must be given")}
	}
	o := sieve.Options{Theta: req.Options.Theta}
	// On the wire θ=0 means "paper default". Canonicalize it here, before
	// the options are hashed, so an unset θ and an explicit default-θ
	// address one cache entry instead of computing identical plans twice
	// (negative θ still flows through to the sampler's ErrInvalidTheta).
	if o.Theta == 0 {
		o.Theta = core.DefaultTheta
	}
	switch req.Options.Selection {
	case "", "dominant-cta-first":
		o.Selection = sieve.SelectDominantCTAFirst
	case "first-chronological":
		o.Selection = sieve.SelectFirstChronological
	case "max-cta":
		o.Selection = sieve.SelectMaxCTA
	default:
		return nil, badRequest{fmt.Errorf("unknown selection policy %q", req.Options.Selection)}
	}
	switch req.Options.Splitter {
	case "", "kde":
		o.Tier3Splitter = sieve.SplitKDE
	case "equal-width":
		o.Tier3Splitter = sieve.SplitEqualWidth
	case "gmm":
		o.Tier3Splitter = sieve.SplitGMM
	default:
		return nil, badRequest{fmt.Errorf("unknown splitter %q", req.Options.Splitter)}
	}
	// The server owns its worker budget: a request may lower its
	// parallelism but not exceed the configured per-request default.
	limit := s.cfg.Parallelism
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	o.Parallelism = limit
	if p := req.Options.Parallelism; p > 0 && p < limit {
		o.Parallelism = p
	}
	if req.Options.ReservoirSize < 0 {
		return nil, badRequest{fmt.Errorf("negative reservoir_size %d", req.Options.ReservoirSize)}
	}
	method := sampler.Canonical(req.Options.Method)
	if _, err := sampler.New(method); err != nil {
		return nil, badRequest{err}
	}
	if method != core.MethodSieve && req.Options.Stream {
		return nil, badRequest{fmt.Errorf("method %q does not support stream mode (only the default sieve sampler streams)", method)}
	}
	if method == sampler.MethodPKS && req.ProfileCSV != "" {
		return nil, badRequest{errors.New(`method "pks" requires workload mode: its 12-characteristic feature vectors and golden cycle reference are profiled server-side`)}
	}
	// Only the built-in architectures are accepted by name. sieve.ResolveArch
	// would also open a path as a JSON description, letting a client make the
	// server open any file; and the plan and profile caches key on the arch
	// string, so an edited file would serve stale plans.
	arch := req.Options.Arch
	switch arch {
	case "":
		arch = "ampere"
	case "ampere", "turing":
	default:
		return nil, badRequest{fmt.Errorf("unknown arch %q (sieved accepts ampere or turing)", arch)}
	}
	if req.Workload != "" {
		if _, err := sieve.WorkloadByName(req.Workload); err != nil {
			return nil, badRequest{err}
		}
		if req.Scale == 0 {
			req.Scale = 0.05
		}
		if req.Scale < 0 || req.Scale > 1 {
			return nil, badRequest{fmt.Errorf("scale %g outside (0, 1]", req.Scale)}
		}
	}
	return &resolved{
		req:  req,
		opts: o,
		stream: sieve.StreamOptions{
			Options:       o,
			ReservoirSize: req.Options.ReservoirSize,
			Seed:          req.Options.Seed,
		},
		arch:   arch,
		method: method,
	}, nil
}

// key returns the content hash addressing this request's plan: every
// plan-affecting resolved option plus the profile source. Identical
// profile+options pairs collapse onto one cache entry. Parallelism is
// deliberately excluded — plans are byte-identical across worker counts, so
// hashing the scheduling knob would fragment the LRU into recomputations of
// identical plans (and make the hash disagree across replicas with different
// worker budgets).
//
// The options prefix is appended by hand rather than with fmt.Fprintf, which
// boxes each argument; the bytes are the ones the format
// "%s|theta=%g|sel=%d|split=%d|stream=%v|res=%d|seed=%d|arch=%s|" gives
// (%g is strconv's shortest 'g'), so plan ids are unchanged.
func (rv *resolved) key(kind string) string {
	b := make([]byte, 0, 128)
	b = append(append(b, kind...), "|theta="...)
	b = strconv.AppendFloat(b, rv.opts.Theta, 'g', -1, 64)
	b = strconv.AppendInt(append(b, "|sel="...), int64(rv.opts.Selection), 10)
	b = strconv.AppendInt(append(b, "|split="...), int64(rv.opts.Tier3Splitter), 10)
	b = strconv.AppendBool(append(b, "|stream="...), rv.req.Options.Stream)
	b = strconv.AppendInt(append(b, "|res="...), int64(rv.stream.ReservoirSize), 10)
	b = strconv.AppendUint(append(b, "|seed="...), rv.stream.Seed, 10)
	b = append(append(append(b, "|arch="...), rv.arch...), '|')
	// Non-default methodologies are canonicalized into the hash so the same
	// source sampled under two methods addresses two distinct plans. The
	// default contributes nothing, keeping every pre-existing plan id (and
	// the golden wire fixtures pinning them) byte-stable.
	if rv.method != core.MethodSieve {
		b = append(append(append(b, "method="...), rv.method...), '|')
	}
	h := sha256.New()
	csv := rv.req.ProfileCSV
	if csv != "" {
		h.Write(append(b, "csv|"...))
		// A read-only view of the string's bytes: io.WriteString would copy
		// the whole profile, since sha256 has no WriteString method.
		h.Write(unsafe.Slice(unsafe.StringData(csv), len(csv)))
	} else {
		b = append(append(append(b, "workload|"...), rv.req.Workload...), '|')
		h.Write(strconv.AppendFloat(b, rv.req.Scale, 'g', -1, 64))
	}
	var sum [sha256.Size]byte
	var id [2 * sha256.Size]byte
	hex.Encode(id[:], h.Sum(sum[:0]))
	return string(id[:])
}

// acquireSlot claims a compute worker slot, waiting until the request's
// context expires. The returned release must be called when compute ends.
func (s *Server) acquireSlot(ctx context.Context) (release func(), err error) {
	select {
	case s.slots <- struct{}{}:
		s.metrics.InFlight.Add(1)
		return func() {
			<-s.slots
			s.metrics.InFlight.Add(-1)
		}, nil
	case <-ctx.Done():
		s.metrics.Rejected.Add(1)
		return nil, ctx.Err()
	}
}

// profile materializes the sampler input: the caller's CSV rows, or the
// cached profile of a workload generated and profiled server-side. pks
// additionally plans from the workload's 12-characteristic feature vectors
// and golden per-invocation cycle reference (resolve already rejected pks
// with CSV sources); every other method gets the rows alone. CSV parse
// failures are the caller's data (400); for a workload only an unknown name
// (caught in resolve) is the caller's fault.
func (s *Server) profile(ctx context.Context, rv *resolved) (*sieve.MethodProfile, error) {
	if rv.req.ProfileCSV != "" {
		rows, err := profiler.ParseRows(rv.req.ProfileCSV)
		if err != nil {
			return nil, badRequest{err}
		}
		return &sieve.MethodProfile{Rows: rows}, nil
	}
	p, err := s.workloadProfile(ctx, rv)
	if err != nil || rv.method == sampler.MethodPKS {
		return p, err
	}
	return &sieve.MethodProfile{Rows: p.Rows}, nil
}

// profileRowBytes estimates what one row of a cached workload profile holds:
// the instruction-count row, its pks feature vector (slice header and
// values) and its golden cycle count. Kernel names are shared across a
// kernel's invocations and are not counted.
const profileRowBytes = int64(unsafe.Sizeof(sieve.InvocationProfile{}) +
	unsafe.Sizeof([]float64(nil)) + cudamodel.NumCharacteristics*8 + 8)

// profileKey addresses a workload profile in the profile cache.
func profileKey(workload string, scale float64, arch string) string {
	return workload + "|" + strconv.FormatFloat(scale, 'g', -1, 64) + "|" + arch
}

// workloadProfile returns the profile of the request's workload at its scale
// on its arch. Generation and profiling are deterministic in (workload,
// scale, arch), so a profile is computed once and served from the profile
// cache afterwards; the cached value is shared by every request and never
// mutated. A miss fills rows, pks feature vectors and golden cycles at once,
// so any method can plan from the entry. A profile whose estimated size
// (rows × profileRowBytes) exceeds the whole budget is served but not kept,
// and profiled only as far as the request's method needs. Two concurrent
// first misses may both compute the profile; they produce the same value.
func (s *Server) workloadProfile(ctx context.Context, rv *resolved) (*sieve.MethodProfile, error) {
	key := profileKey(rv.req.Workload, rv.req.Scale, rv.arch)
	if p, ok := s.profiles.get(key); ok {
		return p, nil
	}
	w, err := sieve.GenerateWorkload(rv.req.Workload, rv.req.Scale)
	if err != nil {
		return nil, badRequest{err}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	archCfg, err := sieve.ResolveArch(rv.arch)
	if err != nil {
		return nil, err
	}
	hw, err := sieve.NewHardware(archCfg)
	if err != nil {
		return nil, err
	}
	counts, err := sieve.ProfileInstructionCounts(w, hw)
	if err != nil {
		return nil, err
	}
	p := &sieve.MethodProfile{Rows: sieve.ProfileRows(counts)}
	cost := int64(len(p.Rows)) * profileRowBytes
	keep := cost <= s.profiles.max
	if keep || rv.method == sampler.MethodPKS {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		full, err := sieve.ProfileFull(w, hw)
		if err != nil {
			return nil, err
		}
		p.Features = sieve.FeatureRows(full)
		p.GoldenCycles = hw.MeasureWorkload(w)
	}
	if keep {
		s.profiles.put(key, p, cost)
	}
	return p, nil
}

// samplePlan runs the sampling pipeline for the resolved request: every
// method plans from the materialized profile through one
// SampleMethodContext call. Stream mode (default method only, enforced by
// resolve) is the exception: its input is a row source, so a CSV body
// streams row by row without the profile table ever being built. The request
// seed doubles as the methodology seed, so clients reproduce stochastic
// plans (twophase pilots, rss draws) the same way they salt the cache: via
// options.seed.
func (s *Server) samplePlan(ctx context.Context, rv *resolved) (*sieve.Plan, error) {
	if rv.req.Options.Stream && rv.req.ProfileCSV != "" {
		plan, err := sieve.SampleCSVContext(ctx, strings.NewReader(rv.req.ProfileCSV), rv.stream)
		return plan, rv.callerError(err)
	}
	p, err := s.profile(ctx, rv)
	if err != nil {
		return nil, err
	}
	if rv.req.Options.Stream {
		return sieve.SampleStreamContext(ctx, sieve.SliceSource(p.Rows), rv.stream)
	}
	seed := int64(rv.stream.Seed)
	plan, err := sieve.SampleMethodContext(ctx, rv.method, p, sieve.MethodOptions{
		Core: rv.opts,
		Seed: seed,
		PKS:  pks.Options{Seed: seed, Parallelism: rv.opts.Parallelism},
	})
	return plan, rv.callerError(err)
}

// callerError marks a pipeline failure on caller-supplied CSV as a 400
// unless it already maps to a more specific status: anything a well-formed
// profile cannot produce (non-positive counts, duplicate indices) is the
// caller's data.
func (rv *resolved) callerError(err error) error {
	if err != nil && rv.req.ProfileCSV != "" && statusFor(err) == http.StatusInternalServerError {
		return badRequest{err}
	}
	return err
}

func marshalPlan(p *sieve.Plan) ([]byte, error) {
	out := api.Plan{
		Theta:             p.Theta,
		TotalInstructions: p.TotalInstructions,
		TierInvocations:   p.TierInvocations,
		Sampled:           p.Sampled,
		NumStrata:         p.NumStrata(),
		Representatives:   p.RepresentativeIndices(),
		Strata:            make([]api.Stratum, len(p.Strata)),
	}
	for i, s := range p.Strata {
		out.Strata[i] = api.Stratum{
			Kernel:         s.Kernel,
			Tier:           int(s.Tier),
			Members:        len(s.Invocations),
			Invocations:    s.Invocations,
			Representative: s.Representative,
			Weight:         s.Weight,
			InstructionSum: s.InstructionSum,
		}
	}
	// Both fields are empty on default-method plans and omitted from the
	// JSON, so pre-subsystem plan documents keep their exact bytes.
	out.Method = p.Method
	if iv := p.Interval; iv != nil {
		out.ErrorInterval = &api.ErrorInterval{
			Mean:      iv.Mean,
			StdErr:    iv.StdErr,
			Low:       iv.Low,
			High:      iv.High,
			Resamples: iv.Resamples,
		}
	}
	return json.Marshal(out)
}

// computePlan produces the marshaled plan for id, coalescing concurrent
// misses on the same content hash onto one computation via the in-flight
// table. The computation runs detached under its own RequestTimeout-bounded
// context, so one client's disconnect cannot fail the requests coalesced
// behind it; ctx still cancels this caller's wait individually. The worker
// slot is acquired by the flight leader, inside the flight — never by a
// caller that then waits. Slots strictly bound concurrent solver work; no
// goroutine ever holds one while blocked on another flight, so a
// slot-holder-waits-on-slot-waiter cycle cannot form (the batch path once
// held a slot across item waits and deadlocked the server under
// cache-hostile load). shared reports whether this call joined an
// already-running flight.
// The wait is the flight stage. The leader's computation (detached, but it
// inherits the leader's trace through context.WithoutCancel, which preserves
// context values) times its slot and compute stages on the leader's trace,
// so they nest inside the leader's flight; everything the computation runs,
// the test-only preCompute hold included, counts as slot or compute, not
// flight. A follower's flight has no nested stages; a sampled follower's
// flight span links to the leader's trace via the leader_trace attribute
// instead of duplicating the compute subtree.
func (s *Server) computePlan(ctx context.Context, id string, rv *resolved) (doc []byte, shared bool, err error) {
	fctx, flight := startStage(ctx, stageFlight)
	defer flight.end()
	res, shared, leader, err := s.flights.do(fctx, id, traceID(ctx), func() flightResult {
		cctx, cancel := context.WithTimeout(context.WithoutCancel(fctx), s.cfg.RequestTimeout)
		defer cancel()
		_, slot := startStage(cctx, stageSlot)
		if gate := s.preCompute; gate != nil {
			gate(id)
		}
		release, err := s.acquireSlot(cctx)
		slot.end()
		if err != nil {
			return flightResult{err: err}
		}
		defer release()
		s.metrics.Computations.Add(1)
		compCtx, comp := startStage(cctx, stageCompute)
		defer comp.end()
		plan, err := s.samplePlan(compCtx, rv)
		if err != nil {
			return flightResult{err: err}
		}
		doc, err := marshalPlan(plan)
		if err != nil {
			return flightResult{err: err}
		}
		comp.span.SetAttr("plan_id", id)
		s.metrics.RowsIngested.Add(int64(plan.TierInvocations[0] + plan.TierInvocations[1] + plan.TierInvocations[2]))
		return flightResult{doc: s.cache.put(id, doc).doc}
	})
	if shared {
		flight.span.SetAttr("coalesced", true)
		if leader != "" {
			flight.span.SetAttr("leader_trace", leader)
		}
	}
	if err != nil {
		return nil, shared, err
	}
	return res.doc, shared, res.err
}

// serveSample answers POST /v1/sample and returns the terminal HTTP status,
// so the traced wrapper can record latency for every outcome, errors
// included.
func (s *Server) serveSample(w http.ResponseWriter, r *http.Request) int {
	rv, err := s.decodeResolved(w, r)
	if err != nil {
		return s.writeError(w, err)
	}
	s.metrics.methodRequests(rv.method).Add(1)
	id := rv.key("sample")
	if p, hit := s.cachedPlan(r.Context(), id); hit {
		s.respondHit(r.Context(), w, p)
		return http.StatusOK
	}
	s.metrics.CacheMisses.Add(1)

	// Shard routing: a miss on a hash another replica owns is proxied there,
	// so the cluster computes each plan exactly once. Forwarded requests are
	// always served locally (loop prevention), and an unreachable owner
	// degrades to local compute — a dead peer costs latency, not
	// availability.
	if owner, ok := s.shardRing().ownedElsewhere(id); ok && !isForwarded(r) {
		if status, ok := s.proxySample(w, r.Context(), rv, id, owner); ok {
			return status
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	doc, shared, err := s.computePlan(ctx, id, rv)
	if err != nil {
		return s.writeError(w, err)
	}
	s.respondComputed(r.Context(), w, id, shared, doc)
	return http.StatusOK
}

// decodeResolved reads, decodes and validates a sample-shaped request as the
// decode stage.
func (s *Server) decodeResolved(w http.ResponseWriter, r *http.Request) (*resolved, error) {
	_, decode := startStage(r.Context(), stageDecode)
	defer decode.end()
	req, err := s.decodeRequest(w, r)
	if err != nil {
		return nil, err
	}
	return s.resolve(req)
}

// cachedPlan looks id up in the plan cache as the cache stage and counts a
// hit. Callers count their own misses: a plan GET that misses
// locally ends as a peer fill or a not-found failure instead, which keeps
// cache_hits + cache_misses + failures == requests.
func (s *Server) cachedPlan(ctx context.Context, id string) (storedPlan, bool) {
	_, cache := startStage(ctx, stageCache)
	p, hit := s.cache.get(id)
	cache.span.SetAttr("hit", hit)
	cache.end()
	if hit {
		s.metrics.CacheHits.Add(1)
	}
	return p, hit
}

// respondHit writes a cached plan's stored hit envelope as the write stage.
func (s *Server) respondHit(ctx context.Context, w http.ResponseWriter, p storedPlan) {
	_, write := startStage(ctx, stageWrite)
	writeEnvelope(w, p.hit)
	write.end()
}

// respondComputed builds and writes the cached:false envelope of a plan this
// request computed or joined, as the write stage.
func (s *Server) respondComputed(ctx context.Context, w http.ResponseWriter, id string, coalesced bool, doc []byte) {
	_, write := startStage(ctx, stageWrite)
	writeEnvelope(w, appendPlanEnvelope(make([]byte, 0, len(id)+len(doc)+envelopeSlack), id, false, coalesced, doc))
	write.end()
}

func (s *Server) serveCharacterize(w http.ResponseWriter, r *http.Request) int {
	rv, err := s.decodeResolved(w, r)
	if err != nil {
		return s.writeError(w, err)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	_, slot := startStage(ctx, stageSlot)
	release, err := s.acquireSlot(ctx)
	slot.end()
	if err != nil {
		return s.writeError(w, err)
	}
	defer release()
	compCtx, comp := startStage(ctx, stageCompute)
	p, err := s.profile(compCtx, rv)
	if err != nil {
		comp.end()
		return s.writeError(w, err)
	}
	sums, err := sieve.CharacterizeContext(compCtx, p.Rows, rv.opts.Theta)
	comp.end()
	if err != nil {
		return s.writeError(w, rv.callerError(err))
	}
	s.metrics.RowsIngested.Add(int64(len(p.Rows)))
	out := make([]api.KernelSummary, len(sums))
	for i, k := range sums {
		out[i] = api.KernelSummary{
			Kernel: k.Kernel, Invocations: k.Invocations, Tier: int(k.Tier),
			InstrMin: k.InstrMin, InstrMean: k.InstrMean, InstrMax: k.InstrMax,
			InstrCoV: k.InstrCoV, InstrShare: k.InstrShare,
			DominantCTA: k.DominantCTA, Strata: k.Strata,
		}
	}
	_, write := startStage(ctx, stageWrite)
	writeJSON(w, http.StatusOK, api.CharacterizeResponse{Kernels: out})
	write.end()
	return http.StatusOK
}

// servePlanGet answers GET /v1/plans/{id}: from the local cache when
// possible, otherwise fetched-and-filled from the owning peer replica, so
// any replica serves any cluster-cached plan.
func (s *Server) servePlanGet(w http.ResponseWriter, r *http.Request) int {
	id := r.PathValue("id")
	if p, hit := s.cachedPlan(r.Context(), id); hit {
		s.respondHit(r.Context(), w, p)
		return http.StatusOK
	}
	if owner, ok := s.shardRing().ownedElsewhere(id); ok && !isForwarded(r) {
		if doc := s.fetchPlanFromPeer(r.Context(), owner, id); doc != nil {
			p := s.cache.put(id, doc)
			s.metrics.PeerFills.Add(1)
			s.metrics.CacheHits.Add(1)
			s.respondHit(r.Context(), w, p)
			return http.StatusOK
		}
	}
	s.metrics.Failures.Add(1)
	writeJSON(w, http.StatusNotFound, &api.Error{Message: "plan not cached (recompute via POST /v1/sample)"})
	return http.StatusNotFound
}
