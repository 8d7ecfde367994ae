// Package api defines the wire types of the sieved HTTP JSON protocol: the
// request envelopes accepted by POST /v1/sample, /v1/batch and
// /v1/characterize, and the response documents every endpoint answers with.
//
// These types are the supported integration surface for external clients
// (and for the client package, which wraps them in a typed HTTP client).
// internal/server consumes them through type aliases, so the server and any
// out-of-process consumer marshal the exact same bytes — the JSON encoding
// here is a compatibility contract, pinned byte-for-byte by the server's
// golden wire tests. Field order in the structs is deliberate: encoding/json
// emits struct fields in declaration order, and reordering them would change
// the documents on the wire.
package api

import (
	"encoding/json"
	"strconv"
)

// Version identifies the sieved API generation, reported by GET /healthz.
// It versions the wire protocol, not the build.
const Version = "v1.10"

// TraceHeader is the distributed-tracing header: a traceparent-style value
// "<id>-<flags>" whose first dash-separated token is the trace id (16–64 hex
// digits, 32 when minted) and whose flags byte marks the request sampled when
// bit 0 is set: "<id>-01" is sampled, "<id>-00" or a bare id is not. Every
// request is timed per serving stage and leaves a summary under its id; only
// a sampled request also keeps its full span tree. Clients may mint a sampled
// id (client.WithTraceID); the server mints an unsampled one when the header
// is absent, echoes the id back on the response under the same header, and
// forwards the id with its flag on peer proxy and fetch-and-fill hops, so one
// id names the request across every replica it touches and every replica
// samples it alike.
const TraceHeader = "X-Sieved-Trace"

// RequestOptions is the wire form of the sampling knobs. Zero values select
// the paper defaults, mirroring sieve.Options.
type RequestOptions struct {
	// Theta is the CoV threshold θ (0 = paper default 0.4; negative is a 400).
	Theta float64 `json:"theta,omitempty"`
	// Selection is dominant-cta-first (default), first-chronological or
	// max-cta.
	Selection string `json:"selection,omitempty"`
	// Splitter is kde (default), equal-width or gmm.
	Splitter string `json:"splitter,omitempty"`
	// Parallelism is the per-request sampling worker count, capped by the
	// server's configured default. Plans are byte-identical at any worker
	// count, so this is a scheduling knob only: it does not participate in
	// the plan's content hash.
	Parallelism int `json:"parallelism,omitempty"`
	// Stream selects the bounded-memory streaming sampler.
	Stream bool `json:"stream,omitempty"`
	// ReservoirSize bounds rows retained per kernel in stream mode.
	ReservoirSize int `json:"reservoir_size,omitempty"`
	// Seed seeds the streaming reservoir priority hash. It participates in
	// the plan's content hash even outside stream mode, so load generators
	// can use it as a cache salt to force a cold cache per run.
	Seed uint64 `json:"seed,omitempty"`
	// Arch picks the hardware model for workload-mode profiling: "ampere"
	// (the default) or "turing". sieved answers any other value with 400.
	Arch string `json:"arch,omitempty"`
	// Method selects the sampling methodology: "sieve" (default — also
	// selected by the empty string), "pks", "twophase" or "rss". Non-default
	// methods are canonicalized into the plan's content hash, so the same
	// source sampled under two methods yields two distinct plan ids; the
	// default is hashed exactly as before, keeping existing plan ids stable.
	// "pks" requires workload mode (its feature vectors and golden reference
	// are profiled server-side); no method other than "sieve" supports
	// stream mode.
	Method string `json:"method,omitempty"`
}

// SampleRequest is the JSON envelope accepted by /v1/sample and
// /v1/characterize, and the per-item shape inside /v1/batch. Exactly one of
// ProfileCSV and Workload must be set.
type SampleRequest struct {
	// ProfileCSV is an inline profile table in the WriteProfileCSV format.
	ProfileCSV string `json:"profile_csv,omitempty"`
	// Workload is a Table I catalog workload name to generate and profile
	// server-side, scaled by Scale (0 = 0.05).
	Workload string  `json:"workload,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	// Options carries the sampling knobs.
	Options RequestOptions `json:"options"`
}

// PlanEnvelope wraps a plan document on the wire: the response of
// POST /v1/sample and GET /v1/plans/{id}.
type PlanEnvelope struct {
	// PlanID is the plan's content hash (profile source + plan-affecting
	// options), under which GET /v1/plans/{id} re-serves the same bytes.
	PlanID string `json:"plan_id"`
	// Cached reports the plan was served from the content-hash cache.
	Cached bool `json:"cached"`
	// Coalesced reports the request joined another request's in-flight
	// computation instead of starting its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Plan is the marshaled plan document (a Plan).
	Plan json.RawMessage `json:"plan"`
}

// Stratum is the wire form of one stratum of a plan.
type Stratum struct {
	Kernel         string  `json:"kernel"`
	Tier           int     `json:"tier"`
	Members        int     `json:"members"`
	Invocations    []int   `json:"invocations"`
	Representative int     `json:"representative"`
	Weight         float64 `json:"weight"`
	InstructionSum float64 `json:"instruction_sum"`
}

// Plan is the wire form of a sampling plan. Method and ErrorInterval were
// added for the pluggable-methodology subsystem; both are omitted for
// default-method plans, so documents produced before the subsystem existed
// are byte-identical to today's default output.
type Plan struct {
	Theta             float64   `json:"theta"`
	TotalInstructions float64   `json:"total_instructions"`
	TierInvocations   [3]int    `json:"tier_invocations"`
	Sampled           bool      `json:"sampled"`
	NumStrata         int       `json:"num_strata"`
	Representatives   []int     `json:"representatives"`
	Strata            []Stratum `json:"strata"`
	// Method names the methodology that built the plan ("pks", "twophase",
	// "rss"); absent for the default Sieve sampler.
	Method string `json:"method,omitempty"`
	// ErrorInterval is the methodology-supplied confidence interval on the
	// plan's relative estimation error; absent when the methodology does not
	// quantify its own uncertainty.
	ErrorInterval *ErrorInterval `json:"error_interval,omitempty"`
}

// ErrorInterval is the wire form of a plan's error confidence interval. All
// quantities are relative (0.01 = 1%).
type ErrorInterval struct {
	// Mean is the central estimate of the relative error (mean signed
	// resample error, or 0 for analytic variance-derived intervals).
	Mean float64 `json:"mean"`
	// StdErr is the standard error of Mean.
	StdErr float64 `json:"std_err"`
	// Low and High bound the interval (Mean ± 2·StdErr).
	Low  float64 `json:"low"`
	High float64 `json:"high"`
	// Resamples is the repeated-subsampling count behind the interval; 0
	// marks an analytic (variance-derived) interval.
	Resamples int `json:"resamples,omitempty"`
}

// BatchRequest is the wire form of POST /v1/batch: stratify many profiles in
// one request. Each item is a full SampleRequest, so a batch can mix CSV and
// workload sources and vary options per item.
type BatchRequest struct {
	Items []SampleRequest `json:"items"`
}

// BatchItemResult is the per-item envelope inside a batch response: the
// plan's envelope on success, an HTTP-style status plus error otherwise.
// Items fail independently — one malformed profile does not sink its
// siblings.
type BatchItemResult struct {
	// Status is the item's HTTP-equivalent status (200 on success, else the
	// code /v1/sample would have answered).
	Status int `json:"status"`
	// PlanID is the item's content hash (set whenever the item resolved).
	PlanID string `json:"plan_id,omitempty"`
	// Cached reports the plan was served from the cache without computing.
	Cached bool `json:"cached,omitempty"`
	// Coalesced reports the item joined another request's in-flight
	// computation instead of starting its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Plan is the marshaled plan document (success only).
	Plan json.RawMessage `json:"plan,omitempty"`
	// Error carries the failure detail (non-2xx only).
	Error string `json:"error,omitempty"`
}

// BatchResponse is the wire form of a /v1/batch response.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
}

// KernelSummary is the wire form of one kernel characterization row.
type KernelSummary struct {
	Kernel      string  `json:"kernel"`
	Invocations int     `json:"invocations"`
	Tier        int     `json:"tier"`
	InstrMin    float64 `json:"instr_min"`
	InstrMean   float64 `json:"instr_mean"`
	InstrMax    float64 `json:"instr_max"`
	InstrCoV    float64 `json:"instr_cov"`
	InstrShare  float64 `json:"instr_share"`
	DominantCTA int     `json:"dominant_cta"`
	Strata      int     `json:"strata"`
}

// CharacterizeResponse is the wire form of a /v1/characterize response.
type CharacterizeResponse struct {
	Kernels []KernelSummary `json:"kernels"`
}

// Health is the JSON body of GET /healthz: liveness plus ring membership, so
// any replica can be asked who its peers are. Old probes that send
// Accept: text/plain get a bare "ok" body instead.
type Health struct {
	Status string `json:"status"`
	// Self is this replica's advertised base URL ("" when no ring is
	// configured).
	Self string `json:"self,omitempty"`
	// Peers lists the full replica set, self included, in ring member order
	// (absent when running single-node).
	Peers []string `json:"peers,omitempty"`
	// Version is the API generation (Version).
	Version string `json:"version"`
}

// LatencyMS is the latency quantile pair inside DebugMetrics, in
// milliseconds.
type LatencyMS struct {
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
}

// DebugMetrics mirrors the GET /debug/metrics JSON document. The key set is
// a compatibility contract (dashboards parse it); the server's
// TestDebugMetricsJSONShape pins it.
type DebugMetrics struct {
	Requests     int64 `json:"requests"`
	Failures     int64 `json:"failures"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int64 `json:"cache_entries"`
	Computations int64 `json:"computations"`
	Coalesced    int64 `json:"coalesced"`
	BatchItems   int64 `json:"batch_items"`
	PeerFills    int64 `json:"peer_fills"`
	PeerProxied  int64 `json:"peer_proxied"`
	InFlight     int64 `json:"in_flight"`
	Rejected     int64 `json:"rejected"`
	RowsIngested int64 `json:"rows_ingested"`
	// MethodRequests counts sample requests per resolved sampling
	// methodology, keyed by canonical method name ("sieve", "pks", …). The
	// map grows as methods are first requested.
	MethodRequests map[string]int64 `json:"method_requests"`
	LatencyMS      LatencyMS        `json:"latency_ms"`
}

// TraceSpan is one node of a trace's span tree: the wire form of an obs
// span, with start offsets in nanoseconds relative to the request's start.
type TraceSpan struct {
	Name       string           `json:"name"`
	StartNS    int64            `json:"start_ns"`
	DurationNS int64            `json:"duration_ns"`
	Attrs      map[string]any   `json:"attrs,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Children   []*TraceSpan     `json:"children,omitempty"`
}

// TraceSummary is one row of the GET /debug/traces listing.
type TraceSummary struct {
	// TraceID is the 32-hex-digit id from TraceHeader.
	TraceID string `json:"trace_id"`
	Method  string `json:"method"`
	Path    string `json:"path"`
	Status  int    `json:"status"`
	// StartUnixNS is the request's wall-clock start (Unix nanoseconds).
	StartUnixNS int64 `json:"start_unix_ns"`
	DurationNS  int64 `json:"duration_ns"`
}

// Trace is the JSON body of GET /debug/traces/{id}: one completed request's
// identity, per-stage attribution and, when the request was sampled (see
// TraceHeader), its full span tree on the replica that answered. With
// ?format=chrome the endpoint renders a sampled request's tree as Chrome
// trace-event JSON instead.
type Trace struct {
	TraceSummary
	// Replica is the answering replica's advertised base URL ("" single-node).
	Replica string `json:"replica,omitempty"`
	// StageNS is the request's exclusive time per serving stage (decode,
	// cache, slot, flight, compute, proxy, write), in nanoseconds. Stages the
	// request never entered are absent.
	StageNS map[string]int64 `json:"stage_ns,omitempty"`
	// Spans is the request's span forest, empty unless it was sampled.
	Spans []*TraceSpan `json:"spans"`
}

// TraceList is the JSON body of GET /debug/traces: the most recent completed
// traces plus the slowest ones still resident in the bounded ring store.
type TraceList struct {
	// Stored is the number of traces currently resident; Capacity is the ring
	// size (old traces are overwritten once Stored reaches it).
	Stored   int            `json:"stored"`
	Capacity int            `json:"capacity"`
	Recent   []TraceSummary `json:"recent"`
	Slowest  []TraceSummary `json:"slowest"`
}

// Error is the JSON body of every failed request: {"error": "..."}. It
// doubles as the typed error the client package returns for non-2xx
// responses, carrying the HTTP status out of band.
type Error struct {
	// Status is the HTTP status of the failed response (not serialized; the
	// wire body carries only the message).
	Status int `json:"-"`
	// Message is the failure detail.
	Message string `json:"error"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Status != 0 {
		return "sieved: status " + strconv.Itoa(e.Status) + ": " + e.Message
	}
	return "sieved: " + e.Message
}
