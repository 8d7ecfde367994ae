package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"reflect"
	"sync"

	sieve "github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/pks"
)

// recheckEvery picks the share of non-default-method plans recomputed
// in-process after the window: every tenth per method.
const recheckEvery = 10

// verifier checks every plan a workload receives. Inline, on the request's
// critical path, it checks the cached flag and that each plan_id always
// names the same plan bytes, on every replica and request shape. After the
// window it compares the first default-method plan of every catalog entry
// with the in-process sieve.SampleContext plan, field by field, and
// recomputes a deterministic share of the other methods' plans.
type verifier struct {
	// wantCached, when set, is the cached flag every response must carry.
	wantCached *bool

	seed maphash.Seed
	mu   sync.Mutex
	byID map[string]uint64
	// first holds the first default-method plan seen per catalog entry.
	first map[int][]byte
	// rechecks are the sampled non-default-method plans; seen counts each
	// method's plans so far.
	rechecks []recheck
	seen     map[string]int
}

type recheck struct {
	entry  int
	method string
	seed   uint64
	plan   []byte
}

func newVerifier() *verifier {
	return &verifier{
		seed:  maphash.MakeSeed(),
		byID:  map[string]uint64{},
		first: map[int][]byte{},
		seen:  map[string]int{},
	}
}

// observe checks one plan response for catalog entry entry, requested with
// the given method ("" for the default) and options seed.
func (v *verifier) observe(entry int, method string, seed uint64, id string, cached bool, plan []byte) error {
	if id == "" || len(plan) == 0 {
		return verifyError{fmt.Errorf("response without plan_id or plan")}
	}
	if v.wantCached != nil && cached != *v.wantCached {
		return verifyError{fmt.Errorf("plan %.12s: cached=%v, want %v", id, cached, *v.wantCached)}
	}
	h := maphash.Bytes(v.seed, plan)
	v.mu.Lock()
	defer v.mu.Unlock()
	if prev, ok := v.byID[id]; ok && prev != h {
		return verifyError{fmt.Errorf("plan %.12s: bytes differ from an earlier response", id)}
	}
	v.byID[id] = h
	if method == "" || method == "sieve" {
		if _, ok := v.first[entry]; !ok {
			v.first[entry] = append([]byte(nil), plan...)
		}
		return nil
	}
	if v.seen[method]%recheckEvery == 0 {
		v.rechecks = append(v.rechecks, recheck{entry, method, seed, append([]byte(nil), plan...)})
	}
	v.seen[method]++
	return nil
}

// finish runs the deferred checks against the catalog the workload drew
// from and returns one error per mismatching plan.
func (v *verifier) finish(ctx context.Context, entries []*entry) []error {
	var errs []error
	for i, got := range v.first {
		if err := samePlan(got, entries[i].want); err != nil {
			errs = append(errs, verifyError{fmt.Errorf("%s: served plan vs in-process sieve.SampleContext: %w", entries[i], err)})
		}
	}
	for _, rc := range v.rechecks {
		e := entries[rc.entry]
		plan, err := methodPlan(ctx, e, rc.method, rc.seed)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: recompute %s plan: %w", e, rc.method, err))
			continue
		}
		if err := samePlan(rc.plan, wirePlan(plan)); err != nil {
			errs = append(errs, verifyError{fmt.Errorf("%s: served %s plan (seed %d) vs in-process recompute: %w", e, rc.method, rc.seed, err)})
		}
	}
	return errs
}

// methodPlan computes in-process the plan sieved serves for a workload-mode
// request of entry e with the given method and options seed: the server's
// resolved default options, the seed as the methodology seed, and for pks
// the full feature profile.
func methodPlan(ctx context.Context, e *entry, method string, seed uint64) (*sieve.Plan, error) {
	opts := sieve.MethodOptions{Core: serverOptions(), Seed: int64(seed)}
	p := &sieve.MethodProfile{Rows: e.rows}
	if method == "pks" {
		opts.PKS = pks.Options{Seed: int64(seed)}
		p = e.full
	}
	return sieve.SampleMethodContext(ctx, method, p, opts)
}

// serverOptions are the sampling options sieved resolves a request without
// options to.
func serverOptions() sieve.Options {
	return sieve.Options{Theta: sieve.DefaultTheta, Selection: sieve.SelectDominantCTAFirst, Tier3Splitter: sieve.SplitKDE}
}

// wirePlan renders a plan in the api.Plan wire form sieved answers with.
func wirePlan(p *sieve.Plan) api.Plan {
	out := api.Plan{
		Theta:             p.Theta,
		TotalInstructions: p.TotalInstructions,
		TierInvocations:   p.TierInvocations,
		Sampled:           p.Sampled,
		NumStrata:         p.NumStrata(),
		Representatives:   p.RepresentativeIndices(),
		Strata:            make([]api.Stratum, len(p.Strata)),
		Method:            p.Method,
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
	if iv := p.Interval; iv != nil {
		out.ErrorInterval = &api.ErrorInterval{Mean: iv.Mean, StdErr: iv.StdErr, Low: iv.Low, High: iv.High, Resamples: iv.Resamples}
	}
	return out
}

// samePlan decodes a served plan document and compares it with want field
// by field, naming the first field that differs.
func samePlan(served []byte, want api.Plan) error {
	var got api.Plan
	if err := json.Unmarshal(served, &got); err != nil {
		return fmt.Errorf("decode plan: %w", err)
	}
	// A JSON round trip puts want in the form a decoded document has (empty
	// slices rather than nil), so only content can differ.
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var norm api.Plan
	if err := json.Unmarshal(b, &norm); err != nil {
		return err
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(norm)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			return fmt.Errorf("field %s differs", gv.Type().Field(i).Name)
		}
	}
	return nil
}
