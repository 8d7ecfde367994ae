package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	sieve "github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/internal/cluster"
	"github.com/gpusampling/sieve/internal/kde"
	"github.com/gpusampling/sieve/internal/mat"
	"github.com/gpusampling/sieve/internal/pca"
	"github.com/gpusampling/sieve/internal/pks"
	"github.com/gpusampling/sieve/internal/server"
)

// Each traced-run number is the median of timedCalls calls per input, after
// warmCalls unmeasured ones.
const (
	warmCalls  = 3
	timedCalls = 30
)

// tracedSeed is the methodology seed of the traced run's plans. The run
// seed drives only the load phases' arrivals, picks, salts and method order.
const tracedSeed = 1

// span is one bench-side span: a call into a layer, or a group of them.
type span struct {
	name       string
	id, parent int
	start, end time.Time
}

// tracer keeps the traced run's spans in memory until the run ends. It is
// used from one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, start: time.Now()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].end = time.Now() }

// timeCalls makes warmCalls unmeasured calls of fn, then timedCalls calls
// under a span each, and returns the median call time.
func (t *tracer) timeCalls(parent int, name string, fn func() error) (time.Duration, error) {
	for i := 0; i < warmCalls; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	ds := make([]float64, timedCalls)
	for i := range ds {
		id := t.begin(name, parent)
		err := fn()
		t.end(id)
		if err != nil {
			return 0, err
		}
		ds[i] = float64(t.spans[id-1].end.Sub(t.spans[id-1].start))
	}
	return time.Duration(median(ds)), nil
}

// layerInput is one input a layer is timed on.
type layerInput struct {
	name string
	call func() error
}

// layer times every input under a span of its own and returns the mean over
// inputs of the median call time: the layer's cost per request when the
// inputs are requested uniformly, as the load phases request them.
func (t *tracer) layer(parent int, name string, inputs []layerInput) (time.Duration, error) {
	id := t.begin(name, parent)
	defer t.end(id)
	var sum time.Duration
	for _, in := range inputs {
		iid := t.begin(in.name, id)
		d, err := t.timeCalls(iid, name, in.call)
		t.end(iid)
		if err != nil {
			return 0, fmt.Errorf("%s on %s: %w", name, in.name, err)
		}
		sum += d
	}
	return sum / time.Duration(len(inputs)), nil
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events), loadable in chrome://tracing or Perfetto, with the run's header
// as the trace's metadata.
func (t *tracer) writeChrome(w io.Writer, h header) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   us(s.start.Sub(t.origin)),
			Dur:  us(s.end.Sub(s.start)),
			Args: map[string]int{"id": s.id, "parent": s.parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": h})
}

// allocsPerCall returns the mean heap allocations of fn over n calls.
func allocsPerCall(n int, fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// timedLayer is one traced-run metric: a layer timed on a set of inputs.
type timedLayer struct {
	metric string
	unit   time.Duration // the metric's unit
	inputs []layerInput
}

// tracedRun times each layer's public entry point on the inputs of the
// workloads that reach it, with a context that carries no collector, so the
// program's own instrumentation stays off. Layers reached only by CSV
// requests run on the CSV profiles, the sampling methods on the
// workload-methods entries, and generation on every workload-mode entry.
func tracedRun(ctx context.Context, t *tracer, csvEntries, methodEntries, mixEntries []*entry) (map[string]float64, error) {
	root := t.begin("traced-run", 0)
	defer t.end(root)
	each := func(es []*entry, fn func(e *entry) error) []layerInput {
		in := make([]layerInput, len(es))
		for i, e := range es {
			e := e
			in[i] = layerInput{e.String(), func() error { return fn(e) }}
		}
		return in
	}
	splits := map[*entry][][]float64{}
	for _, e := range csvEntries {
		counts, err := tier3Counts(e)
		if err != nil {
			return nil, err
		}
		splits[e] = counts
	}
	stratify := each(csvEntries, func(e *entry) error {
		_, err := sieve.SampleContext(ctx, e.rows, serverOptions())
		return err
	})
	layers := []timedLayer{
		{"profiler.parse_ms", time.Millisecond, each(csvEntries, func(e *entry) error {
			_, err := sieve.ReadProfileCSV(strings.NewReader(e.csv))
			return err
		})},
		{"core.stratify_ms", time.Millisecond, stratify},
		{"kde.split_ms", time.Millisecond, each(csvEntries, func(e *entry) error {
			for _, xs := range splits[e] {
				if _, err := kde.SplitUnderCoVContext(ctx, xs, sieve.DefaultTheta); err != nil {
					return err
				}
			}
			return nil
		})},
		{"workloads.generate_ms", time.Millisecond, each(append(append([]*entry(nil), methodEntries...), mixEntries...), func(e *entry) error {
			_, err := sieve.GenerateWorkload(e.name, e.scale)
			return err
		})},
	}
	for _, m := range methods {
		m := m
		layers = append(layers, timedLayer{"sampler.run_ms." + m, time.Millisecond, each(methodEntries, func(e *entry) error {
			_, err := methodPlan(ctx, e, m, tracedSeed)
			return err
		})})
	}
	pksInputs, err := pksLayers(ctx, methodEntries)
	if err != nil {
		return nil, err
	}
	layers = append(layers, pksInputs...)
	h := newHandlerInputs(csvEntries)
	layers = append(layers,
		timedLayer{"server.handler_hit_us", time.Microsecond, h.hits},
		timedLayer{"server.handler_miss_us", time.Microsecond, h.misses})

	out := map[string]float64{}
	for _, l := range layers {
		d, err := t.layer(root, l.metric, l.inputs)
		if err != nil {
			return nil, err
		}
		out[l.metric] = float64(d) / float64(l.unit)
	}
	if out["core.stratify_allocs"], err = meanAllocs(stratify); err != nil {
		return nil, err
	}
	if out["server.handler_hit_allocs"], err = meanAllocs(h.hits); err != nil {
		return nil, err
	}
	return out, nil
}

// tier3Counts returns the instruction counts, in profile order, of each of
// an entry's Tier-3 kernels (tiers from sieve.Characterize at the default
// θ): the samples stratification hands the KDE splitter.
func tier3Counts(e *entry) ([][]float64, error) {
	sums, err := sieve.Characterize(e.rows, 0)
	if err != nil {
		return nil, err
	}
	index := map[string]int{}
	for _, k := range sums {
		if k.Tier == sieve.Tier3 {
			index[k.Kernel] = len(index)
		}
	}
	if len(index) == 0 {
		return nil, fmt.Errorf("%s has no Tier-3 kernel", e)
	}
	counts := make([][]float64, len(index))
	for _, r := range e.rows {
		if i, ok := index[r.Kernel]; ok {
			counts[i] = append(counts[i], r.InstructionCount)
		}
	}
	return counts, nil
}

// meanAllocs returns the mean over inputs of the heap allocations per call,
// counted after one uncounted call that refills caches and request queues.
func meanAllocs(inputs []layerInput) (float64, error) {
	var sum float64
	for _, in := range inputs {
		if err := in.call(); err != nil {
			return 0, err
		}
		a, err := allocsPerCall(timedCalls, in.call)
		if err != nil {
			return 0, err
		}
		sum += a
	}
	return sum / float64(len(inputs)), nil
}

// pksLayers times pks.SelectContext on each workload-methods entry, then
// k-means alone at the cluster count pks chose, on the same PCA-reduced
// points and with the same per-k seed pks gives it.
func pksLayers(ctx context.Context, entries []*entry) ([]timedLayer, error) {
	selects := timedLayer{metric: "pks.select_ms", unit: time.Millisecond}
	kmeans := timedLayer{metric: "cluster.kmeans_ms", unit: time.Millisecond}
	for _, e := range entries {
		e := e
		popts := pks.Options{Seed: tracedSeed}
		res, err := pks.SelectContext(ctx, e.full.Features, e.full.GoldenCycles, popts)
		if err != nil {
			return nil, fmt.Errorf("pks on %s: %w", e, err)
		}
		points, err := pcaPoints(e.full.Features)
		if err != nil {
			return nil, fmt.Errorf("pca on %s: %w", e, err)
		}
		k := res.K
		selects.inputs = append(selects.inputs, layerInput{e.String(), func() error {
			_, err := pks.SelectContext(ctx, e.full.Features, e.full.GoldenCycles, popts)
			return err
		}})
		kmeans.inputs = append(kmeans.inputs, layerInput{fmt.Sprintf("%s k=%d", e, k), func() error {
			rng := rand.New(rand.NewSource(tracedSeed + int64(k)*7919))
			_, err := cluster.KMeans(points, cluster.Config{K: k, Rng: rng, MaxIterations: 30})
			return err
		}})
	}
	return []timedLayer{selects, kmeans}, nil
}

// pcaPoints standardizes and projects feature rows as pks does before
// clustering, keeping 90% of the variance.
func pcaPoints(features [][]float64) ([][]float64, error) {
	m, err := mat.FromRows(features)
	if err != nil {
		return nil, err
	}
	_, proj, err := pca.FitTransform(m, pks.DefaultVarianceFraction)
	if err != nil {
		return nil, err
	}
	return pca.Rows(proj), nil
}

// handlerInputs drive an in-process sieved handler with the CSV profiles: a
// repeated request (a hit after the first) and a freshly salted one (a
// miss). Each input serves requests from a queue built before any call is
// timed or counted, so only ServeHTTP is measured.
type handlerInputs struct {
	hits, misses []layerInput
}

func newHandlerInputs(entries []*entry) *handlerInputs {
	h := server.New(server.Config{}).Handler()
	post := func(e *entry, seed int) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/sample?seed="+strconv.Itoa(seed), strings.NewReader(e.csv))
		r.Header.Set("Content-Type", "text/csv")
		return r
	}
	serve := func(next func() *http.Request) func() error {
		var reqs []*http.Request
		return func() error {
			if len(reqs) == 0 {
				for i := 0; i < warmCalls+timedCalls; i++ {
					reqs = append(reqs, next())
				}
			}
			req := reqs[0]
			reqs = reqs[1:]
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
			}
			return nil
		}
	}
	out := &handlerInputs{}
	salt := 1
	for _, e := range entries {
		e := e
		out.hits = append(out.hits, layerInput{e.String(), serve(func() *http.Request { return post(e, 1) })})
		out.misses = append(out.misses, layerInput{e.String(), serve(func() *http.Request { salt++; return post(e, salt) })})
	}
	return out
}
