package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	sieve "github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/api"
)

// entry is one catalog input: a Table I workload at a scale, rendered the
// ways requests carry it, with the plan sieved must answer for it.
type entry struct {
	name  string
	scale float64
	csv   string
	rows  []sieve.InvocationProfile
	// full adds the pks feature vectors and golden cycles to rows.
	full *sieve.MethodProfile
	// want is the in-process default-method plan in wire form.
	want api.Plan
}

func (e *entry) String() string { return fmt.Sprintf("%s@%g", e.name, e.scale) }

type spec struct {
	name  string
	scale float64
}

// csvSpecs are Cactus and MLPerf profiles with Tier-3 kernels, 877–4146
// rows (41–195 KB of CSV): large enough that parsing, stratification and
// KDE splitting dominate a miss.
var csvSpecs = []spec{
	{"lmc", 0.01}, {"spt", 0.02}, {"rnnt", 0.01}, {"dcg", 0.01},
	{"lgt", 0.005}, {"ssd-mobilenet", 0.02}, {"3d-unet", 0.01}, {"gru", 0.02},
}

// methodSpecs are small enough that pks, the slowest method, stays within a
// few tens of milliseconds per plan.
var methodSpecs = []spec{{"gst", 1}, {"gru", 0.02}, {"3d-unet", 0.01}, {"ssd-mobilenet", 0.02}}

// mixSpecs are the 24 smallest entries (10–49 rows), the load harness's
// default catalog: compute is negligible, so service overheads dominate.
// They are listed here rather than taken from internal/load so that a change
// to the harness's defaults cannot silently change the benchmark's inputs.
var mixSpecs = func() []spec {
	var out []spec
	for _, name := range []string{"dwt2d", "bfs_ny", "heartwall", "lud", "nvjpeg", "random", "huffman", "mergesort"} {
		for _, scale := range []float64{0.25, 0.5, 1} {
			out = append(out, spec{name, scale})
		}
	}
	return out
}()

// methods are the sampling methodologies workload-methods cycles through.
var methods = []string{"sieve", "twophase", "rss", "pks"}

// buildEntries generates, profiles and plans every spec in-process through
// the public sieve package.
func buildEntries(ctx context.Context, specs []spec) ([]*entry, error) {
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		return nil, err
	}
	out := make([]*entry, len(specs))
	for i, s := range specs {
		w, err := sieve.GenerateWorkload(s.name, s.scale)
		if err != nil {
			return nil, err
		}
		counts, err := sieve.ProfileInstructionCounts(w, hw)
		if err != nil {
			return nil, err
		}
		full, err := sieve.ProfileFull(w, hw)
		if err != nil {
			return nil, err
		}
		var csv strings.Builder
		if err := sieve.WriteProfileCSV(counts, &csv); err != nil {
			return nil, err
		}
		rows := sieve.ProfileRows(counts)
		plan, err := sieve.SampleContext(ctx, rows, serverOptions())
		if err != nil {
			return nil, fmt.Errorf("%s@%g: %w", s.name, s.scale, err)
		}
		out[i] = &entry{
			name:  s.name,
			scale: s.scale,
			csv:   csv.String(),
			rows:  rows,
			full:  &sieve.MethodProfile{Rows: rows, Features: sieve.FeatureRows(full), GoldenCycles: hw.MeasureWorkload(w)},
			want:  wirePlan(plan),
		}
	}
	return out, nil
}

// op is a request shape.
type op int

const (
	opCSV   op = iota // POST /v1/sample, text/csv body, options in the query
	opJSON            // POST /v1/sample, JSON workload-mode envelope
	opBatch           // POST /v1/batch of 1–4 workload-mode items
	opGet             // GET /v1/plans/{id}, refilled by opJSON on a 404
)

// call is one scheduled request, fully decided before the window starts.
type call struct {
	op      op
	entries []int // catalog indices: one, or one per batch item
	method  string
	seed    uint64 // options.seed: a cache salt that never changes the plan
	replica int
}

// workload is one traffic mix.
type workload struct {
	name     string
	why      string
	replicas int
	rate     float64 // requests per second
	cache    int     // per-replica -cache (0 keeps sieved's default)
	specs    []spec
	// cached is the cached flag every measured response must carry (nil:
	// either).
	cached *bool
	// calls decides n requests from rng; seq numbers them across warmup and
	// window so per-request salts never repeat within a run.
	calls func(rng *rand.Rand, seq, n int, salt uint64) []call
}

func boolPtr(b bool) *bool { return &b }

var workloads = []*workload{
	{
		name:     "csv-hit",
		why:      "repeated CSV profiles, so every measured request is a cache hit: decode, key hash, lookup, envelope write",
		replicas: 1, rate: 200, specs: csvSpecs, cached: boolPtr(true),
		calls: func(rng *rand.Rand, seq, n int, salt uint64) []call {
			return balancedCalls(rng, n, len(csvSpecs), opCSV, func(int) uint64 { return salt })
		},
	},
	{
		name:     "csv-miss",
		why:      "the csv-hit bytes with a unique salt each, so every request misses and parses, stratifies and fills the LRU",
		replicas: 1, rate: 60, specs: csvSpecs, cached: boolPtr(false),
		calls: func(rng *rand.Rand, seq, n int, salt uint64) []call {
			return balancedCalls(rng, n, len(csvSpecs), opCSV, func(i int) uint64 { return salt + uint64(seq+i) + 1 })
		},
	},
	{
		name:     "workload-methods",
		why:      "workload-mode misses cycling sieve/twophase/rss/pks: the only mix reaching the method registry, pks and generation",
		replicas: 1, rate: 40, specs: methodSpecs, cached: boolPtr(false),
		calls: methodCalls,
	},
	{
		name:     "cluster-mix",
		why:      "two peered replicas, tiny zipfian profiles and a cache half the catalog: proxy, fetch-and-fill, batch and eviction",
		replicas: 2, rate: 800, cache: 12, specs: mixSpecs,
		calls: clusterMixCalls,
	},
}

// balanced returns n catalog indices in a seeded random order, each of the
// k indices appearing ⌊n/k⌋ or ⌈n/k⌉ times: the request mix, and with it the
// mean cost of a request, is the same for every seed.
func balanced(rng *rand.Rand, n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % k
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// balancedCalls draws n single-entry requests of one shape, balanced over
// the catalog, against replica 0.
func balancedCalls(rng *rand.Rand, n, catalog int, shape op, seed func(i int) uint64) []call {
	cs := make([]call, n)
	for i, e := range balanced(rng, n, catalog) {
		cs[i] = call{op: shape, entries: []int{e}, seed: seed(i)}
	}
	return cs
}

// methodCalls cycles the sampling methods from a seeded start and balances
// the entries within each method, so every (entry, method) pair, whose
// costs differ tenfold, is equally frequent.
func methodCalls(rng *rand.Rand, seq, n int, salt uint64) []call {
	first := rng.Intn(len(methods))
	cs := make([]call, n)
	byMethod := make([][]int, len(methods))
	for i := range cs {
		m := (first + seq + i) % len(methods)
		cs[i] = call{op: opJSON, method: methods[m], seed: salt + uint64(seq+i) + 1}
		byMethod[m] = append(byMethod[m], i)
	}
	for _, idx := range byMethod {
		for j, e := range balanced(rng, len(idx), len(methodSpecs)) {
			cs[idx[j]].entries = []int{e}
		}
	}
	return cs
}

// clusterMixCalls rotates evenly through the four request shapes, draws
// entries zipfian (s = 1.2) so a hot set stays resident while the tail
// churns the 12-entry caches, and sends each request to a random replica.
func clusterMixCalls(rng *rand.Rand, seq, n int, salt uint64) []call {
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(mixSpecs)-1))
	first := rng.Intn(4)
	cs := make([]call, n)
	for i := range cs {
		c := call{op: op((first + seq + i) % 4), seed: salt, replica: rng.Intn(2)}
		items := 1
		if c.op == opBatch {
			items = 1 + rng.Intn(4)
		}
		for j := 0; j < items; j++ {
			c.entries = append(c.entries, int(zipf.Uint64()))
		}
		cs[i] = c
	}
	return cs
}

// sender issues a workload's calls against a running cluster and verifies
// every response.
type sender struct {
	cl      *replicaSet
	entries []*entry
	v       *verifier

	// planIDs is the last workload-mode plan_id learned per entry, the ids
	// opGet reads back.
	mu      sync.Mutex
	planIDs map[int]string
}

func (s *sender) send(ctx context.Context, c *call) (time.Time, error) {
	sv := s.cl.replicas[c.replica].sieved
	e := c.entries[0]
	switch c.op {
	case opCSV:
		env, err := sv.SampleCSV(ctx, s.entries[e].csv, api.RequestOptions{Seed: c.seed})
		return s.check(e, "", c.seed, env, err)
	case opJSON:
		return s.sampleJSON(ctx, c, e)
	case opBatch:
		req := &api.BatchRequest{}
		for _, e := range c.entries {
			req.Items = append(req.Items, s.jsonRequest(c, e))
		}
		resp, err := sv.Batch(ctx, req)
		read := time.Now()
		if err != nil {
			return read, err
		}
		if len(resp.Items) != len(c.entries) {
			return read, verifyError{fmt.Errorf("batch of %d answered with %d items", len(c.entries), len(resp.Items))}
		}
		for i, it := range resp.Items {
			if it.Status != http.StatusOK {
				return read, &api.Error{Status: it.Status, Message: "batch item: " + it.Error}
			}
			if err := s.v.observe(c.entries[i], c.method, c.seed, it.PlanID, it.Cached, it.Plan); err != nil {
				return read, err
			}
			s.learn(c.entries[i], it.PlanID)
		}
		return read, nil
	case opGet:
		s.mu.Lock()
		id := s.planIDs[e]
		s.mu.Unlock()
		if id == "" {
			return s.sampleJSON(ctx, c, e)
		}
		env, err := sv.GetPlan(ctx, id)
		var apiErr *api.Error
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
			return s.sampleJSON(ctx, c, e)
		}
		if err == nil && env.PlanID != id {
			return time.Now(), verifyError{fmt.Errorf("GET plan %.12s answered plan %.12s", id, env.PlanID)}
		}
		return s.check(e, c.method, c.seed, env, err)
	}
	return time.Now(), fmt.Errorf("unknown op %d", c.op)
}

func (s *sender) jsonRequest(c *call, e int) api.SampleRequest {
	return api.SampleRequest{
		Workload: s.entries[e].name,
		Scale:    s.entries[e].scale,
		Options:  api.RequestOptions{Seed: c.seed, Method: c.method},
	}
}

func (s *sender) sampleJSON(ctx context.Context, c *call, e int) (time.Time, error) {
	req := s.jsonRequest(c, e)
	env, err := s.cl.replicas[c.replica].sieved.Sample(ctx, &req)
	read, err := s.check(e, c.method, c.seed, env, err)
	if err == nil {
		s.learn(e, env.PlanID)
	}
	return read, err
}

// check verifies a single-plan response, reporting when it was read.
func (s *sender) check(e int, method string, seed uint64, env *api.PlanEnvelope, err error) (time.Time, error) {
	read := time.Now()
	if err != nil {
		return read, err
	}
	return read, s.v.observe(e, method, seed, env.PlanID, env.Cached, env.Plan)
}

func (s *sender) learn(e int, id string) {
	s.mu.Lock()
	s.planIDs[e] = id
	s.mu.Unlock()
}
