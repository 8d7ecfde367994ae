package load

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"

	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/client"
)

// Env is the shared run environment every workload scenario operates in:
// the target replicas (one client each), the profile catalog requests draw
// from, and the run's cache salt.
type Env struct {
	// Clients holds one typed client per target replica. Each request picks
	// a replica at random, so a peered cluster sees requests land on
	// non-owners and exercise the proxy path.
	Clients []*client.Client
	// Catalog is the profile set requests draw from, hottest-first under a
	// zipfian distribution.
	Catalog []Profile
	// Theta is the stratified-sampling budget parameter sent on every
	// request.
	Theta float64
	// Salt is mixed into every request's Options.Seed. The seed participates
	// in the server's plan content hash, so distinct salts see a cold cache
	// even on a long-lived server — each measurement run starts from
	// scratch instead of inheriting the previous run's warm cache.
	Salt uint64
	// Methods is the sampling-methodology pool the workload-mode scenarios
	// (sample, batch, planfetch refills) draw from per request. Empty keeps
	// every request on the server default. Non-default methods hash into
	// distinct plan ids server-side, so a mixed pool multiplies the
	// effective catalog the cache must hold.
	Methods []string

	// planIDs holds the last plan content hash learned for each catalog
	// entry (from any successful response), feeding the planfetch scenario.
	planIDs []atomic.Pointer[string]
}

// NewEnv assembles a run environment. Catalog order matters: index 0 is the
// hottest entry under zipfian popularity.
func NewEnv(clients []*client.Client, catalog []Profile, theta float64, salt uint64) (*Env, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("load: no target clients")
	}
	if len(catalog) == 0 {
		return nil, fmt.Errorf("load: empty profile catalog")
	}
	return &Env{
		Clients: clients,
		Catalog: catalog,
		Theta:   theta,
		Salt:    salt,
		planIDs: make([]atomic.Pointer[string], len(catalog)),
	}, nil
}

// storePlanID records the plan content hash observed for catalog entry i.
func (e *Env) storePlanID(i int, id string) {
	if id != "" && i >= 0 && i < len(e.planIDs) {
		e.planIDs[i].Store(&id)
	}
}

// planID returns the last plan hash learned for catalog entry i ("" if none
// yet).
func (e *Env) planID(i int) string {
	if i < 0 || i >= len(e.planIDs) {
		return ""
	}
	if p := e.planIDs[i].Load(); p != nil {
		return *p
	}
	return ""
}

// options builds the request options for one catalog draw.
func (e *Env) options() api.RequestOptions {
	return api.RequestOptions{Theta: e.Theta, Seed: e.Salt}
}

// method draws one methodology from the env's pool with the worker's RNG
// ("" when no pool is configured — the server default). Drawing per request
// keeps a mixed pool mixed within each scenario, not split across them.
func (w *Worker) method() string {
	pool := w.Env.Methods
	if len(pool) == 0 {
		return ""
	}
	return pool[w.RNG.Intn(len(pool))]
}

// methodOptions is options() plus a per-draw methodology from the pool, for
// the workload-mode scenarios (CSV scenarios stay on the default: pks needs
// server-side feature profiling and would reject a CSV source).
func (w *Worker) methodOptions() api.RequestOptions {
	o := w.Env.options()
	o.Method = w.method()
	return o
}

// Worker is one load-generating goroutine's private state: its deterministic
// RNG and the popularity picker bound to it. Workers never share RNG state,
// so a run with the same seed, schedule and catalog replays the same request
// sequence per worker slot.
type Worker struct {
	RNG  *rand.Rand
	Pick func() int
	Env  *Env

	// refilled marks the op the worker is running as a refill: it took a
	// second request to recompute an evicted plan. The runner clears it
	// before each op and counts it when it records the op.
	refilled bool
}

// client picks the target replica for the next request.
func (w *Worker) client() *client.Client {
	return w.Env.Clients[w.RNG.Intn(len(w.Env.Clients))]
}

// Workload is one load scenario: a request shape the harness can drive in
// either loop mode. Implementations must be safe for concurrent Do calls
// (each call gets its own Worker).
type Workload interface {
	// Name selects the scenario and is its report/metric label.
	Name() string
	// Cap is the scenario's concurrency capacity hint: the most workers the
	// closed loop should ever grant it under the shared budget (0 =
	// uncapped). Max-min allocation redistributes budget a capped scenario
	// cannot use.
	Cap() int
	// Do issues one request and reports its HTTP status. err is non-nil only
	// for transport-level failures (no usable response).
	Do(ctx context.Context, w *Worker) (status int, err error)
}

// workloads is the fixed table of load scenarios, sorted by name.
var workloads = [...]Workload{batchWorkload{}, planfetchWorkload{}, sampleWorkload{}, sampleCSVWorkload{}}

// NewWorkload returns the named scenario.
func NewWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("load: unknown workload %q (have %v)", name, WorkloadNames())
}

// WorkloadNames lists the scenario names, sorted.
func WorkloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name()
	}
	return names
}

// statusOf folds a client call's outcome into (HTTP status, transport
// error): a typed *api.Error carries the status of a delivered error
// response, anything else is a transport failure.
func statusOf(err error) (int, error) {
	if err == nil {
		return http.StatusOK, nil
	}
	var apiErr *api.Error
	if errors.As(err, &apiErr) && apiErr.Status != 0 {
		return apiErr.Status, nil
	}
	return 0, err
}

// sampleWorkload POSTs the JSON envelope request shape: {workload, scale,
// options}, drawing (workload, scale) from the catalog by popularity.
type sampleWorkload struct{}

func (sampleWorkload) Name() string { return "sample" }
func (sampleWorkload) Cap() int     { return 0 }

func (sampleWorkload) Do(ctx context.Context, w *Worker) (int, error) {
	i := w.Pick()
	p := w.Env.Catalog[i]
	env, err := w.client().Sample(ctx, &api.SampleRequest{
		Workload: p.Workload,
		Scale:    p.Scale,
		Options:  w.methodOptions(),
	})
	if err != nil {
		return statusOf(err)
	}
	w.Env.storePlanID(i, env.PlanID)
	return http.StatusOK, nil
}

// sampleCSVWorkload POSTs the raw text/csv request shape with options as
// query parameters — the curl-style ingest path, exercising CSV parsing on
// the server.
type sampleCSVWorkload struct{}

func (sampleCSVWorkload) Name() string { return "sample-csv" }
func (sampleCSVWorkload) Cap() int     { return 0 }

func (sampleCSVWorkload) Do(ctx context.Context, w *Worker) (int, error) {
	i := w.Pick()
	p := w.Env.Catalog[i]
	if p.CSV == "" {
		return 0, fmt.Errorf("load: catalog entry %d (%s@%g) has no rendered CSV", i, p.Workload, p.Scale)
	}
	env, err := w.client().SampleCSV(ctx, p.CSV, w.Env.options())
	if err != nil {
		return statusOf(err)
	}
	w.Env.storePlanID(i, env.PlanID)
	return http.StatusOK, nil
}

// batchWorkload POSTs /v1/batch with a mixed item count (1–4 catalog draws
// per request), the amortized-ingest path. Batches are heavier per request
// than single samples, so the scenario declares a concurrency cap and lets
// max-min allocation hand its unused share to the lighter scenarios.
type batchWorkload struct{}

func (batchWorkload) Name() string { return "batch" }
func (batchWorkload) Cap() int     { return 16 }

func (batchWorkload) Do(ctx context.Context, w *Worker) (int, error) {
	n := 1 + w.RNG.Intn(4)
	items := make([]api.SampleRequest, n)
	picks := make([]int, n)
	for j := range items {
		i := w.Pick()
		picks[j] = i
		p := w.Env.Catalog[i]
		items[j] = api.SampleRequest{Workload: p.Workload, Scale: p.Scale, Options: w.methodOptions()}
	}
	resp, err := w.client().Batch(ctx, &api.BatchRequest{Items: items})
	if err != nil {
		return statusOf(err)
	}
	for j, item := range resp.Items {
		if j < len(picks) && item.Status == http.StatusOK {
			w.Env.storePlanID(picks[j], item.PlanID)
		}
	}
	return http.StatusOK, nil
}

// planfetchWorkload re-reads plans by content hash: GET /v1/plans/{id} for a
// plan some scenario (or an earlier planfetch) already computed. On the
// owning replica that is a pure cache read; on any other replica it
// exercises peer fetch-and-fill. A 404 means the plan was evicted
// everywhere, so the scenario recomputes it with a sample POST — under an
// LRU-thrashing uniform run that happens constantly, under a zipfian run
// the hot set stays resident. Such an op is one refill: its status is the
// POST's and its latency covers both requests.
type planfetchWorkload struct{}

func (planfetchWorkload) Name() string { return "planfetch" }
func (planfetchWorkload) Cap() int     { return 0 }

func (planfetchWorkload) Do(ctx context.Context, w *Worker) (int, error) {
	i := w.Pick()
	id := w.Env.planID(i)
	if id == "" {
		// No hash learned yet for this entry — compute it once so later
		// draws can re-read it.
		return sampleWorkload{}.Do(ctx, w)
	}
	env, err := w.client().GetPlan(ctx, id)
	if err != nil {
		status, terr := statusOf(err)
		if terr == nil && status == http.StatusNotFound {
			// Evicted on every replica: refill by recomputing.
			w.refilled = true
			p := w.Env.Catalog[i]
			senv, serr := w.client().Sample(ctx, &api.SampleRequest{
				Workload: p.Workload, Scale: p.Scale, Options: w.methodOptions(),
			})
			if serr != nil {
				return statusOf(serr)
			}
			w.Env.storePlanID(i, senv.PlanID)
			return http.StatusOK, nil
		}
		return status, terr
	}
	w.Env.storePlanID(i, env.PlanID)
	return http.StatusOK, nil
}
