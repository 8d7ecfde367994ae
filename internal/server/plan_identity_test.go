package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/sampler"
)

// identitySeed is the options seed every plan-identity request carries, so
// the seeded methods (twophase, rss, pks) plan from a non-default seed.
const identitySeed = 7

// TestServedPlanIdentity is the differential contract between sieved and the
// library: for every method, both profile sources and every
// request path, the plan bytes the service answers equal marshalPlan of the
// plan sieve.SampleMethodContext builds in-process with the options the
// server resolved the request to. The default method is checked in stream
// mode too, with an 8-row reservoir that samples the plan: the service
// streams a CSV body through sieve.CSVSource, while the in-process reference
// streams the parsed rows.
func TestServedPlanIdentity(t *testing.T) {
	srv := New(Config{})
	csvBytes, err := os.ReadFile(filepath.Join("..", "..", "testdata", "profile_lmc_scale0.01.csv"))
	if err != nil {
		t.Fatal(err)
	}
	csv := string(csvBytes)
	sources := []struct {
		name string
		req  api.SampleRequest
	}{
		{"csv", api.SampleRequest{ProfileCSV: csv}},
		{"workload", api.SampleRequest{Workload: "lmc", Scale: 0.01}},
	}
	type mode struct {
		name string
		opts api.RequestOptions
	}
	for _, method := range sampler.Names() {
		modes := []mode{{"", api.RequestOptions{Method: method, Seed: identitySeed}}}
		if method == core.MethodSieve {
			modes = append(modes, mode{"-stream", api.RequestOptions{Stream: true, ReservoirSize: 8, Seed: identitySeed}})
		}
		for _, src := range sources {
			if method == sampler.MethodPKS && src.req.ProfileCSV != "" {
				continue // pks plans from server-side feature profiling only
			}
			for _, m := range modes {
				req := src.req
				req.Options = m.opts
				t.Run(method+m.name+"/"+src.name, func(t *testing.T) {
					want := inProcessPlan(t, srv, req)
					var plan api.Plan
					if err := json.Unmarshal(want, &plan); err != nil {
						t.Fatal(err)
					}
					if plan.Sampled != req.Options.Stream {
						t.Fatalf("sampled = %v: an 8-row reservoir, and only it, should sample the lmc profile", plan.Sampled)
					}
					for path, got := range servedPlans(t, req) {
						if string(got) != string(want) {
							t.Errorf("%s: served plan differs from the in-process plan:\n got %s\nwant %s", path, got, want)
						}
					}
				})
			}
		}
	}
}

// TestStreamPlanIndependentOfParallelism posts the lmc fixture in stream mode
// with an 8-row reservoir, which samples the plan, to servers whose worker
// default differs. The plan key leaves parallelism out, so both servers must
// answer the same plan_id and the same plan bytes.
func TestStreamPlanIndependentOfParallelism(t *testing.T) {
	csv, err := os.ReadFile(filepath.Join("..", "..", "testdata", "profile_lmc_scale0.01.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var envs []sampleEnvelope
	for _, p := range []int{1, 2} {
		status, body := postCSV(t, newTestServer(t, Config{Parallelism: p}).URL+"/v1/sample?stream=true&reservoir_size=8&seed=7", string(csv))
		var env sampleEnvelope
		if err := json.Unmarshal(body, &env); status != http.StatusOK || err != nil {
			t.Fatalf("parallelism %d: status %d, %v: %s", p, status, err, body)
		}
		envs = append(envs, env)
	}
	if envs[0].PlanID != envs[1].PlanID {
		t.Fatalf("plan_id differs across parallelism: %s vs %s", envs[0].PlanID, envs[1].PlanID)
	}
	if string(envs[0].Plan) != string(envs[1].Plan) {
		t.Fatalf("plan bytes differ across parallelism:\n 1: %s\n 2: %s", envs[0].Plan, envs[1].Plan)
	}
}

// cloneRequest copies a request so resolve's defaulting cannot leak into the
// caller's value.
func cloneRequest(req api.SampleRequest) *api.SampleRequest { return &req }

// inProcessPlan builds the plan for req without the HTTP layer: the server
// resolves the options, and the profile is materialized here independently
// of the server's own profiling code.
func inProcessPlan(t *testing.T, srv *Server, req api.SampleRequest) []byte {
	t.Helper()
	rv, err := srv.resolve(cloneRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	p := &sieve.MethodProfile{}
	if req.ProfileCSV != "" {
		prof, err := sieve.ReadProfileCSV(strings.NewReader(req.ProfileCSV))
		if err != nil {
			t.Fatal(err)
		}
		p.Rows = sieve.ProfileRows(prof)
	} else {
		w, err := sieve.GenerateWorkload(rv.req.Workload, rv.req.Scale)
		if err != nil {
			t.Fatal(err)
		}
		arch, err := sieve.ResolveArch(rv.arch)
		if err != nil {
			t.Fatal(err)
		}
		hw, err := sieve.NewHardware(arch)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := sieve.ProfileInstructionCounts(w, hw)
		if err != nil {
			t.Fatal(err)
		}
		p.Rows = sieve.ProfileRows(counts)
		if rv.method == sampler.MethodPKS {
			full, err := sieve.ProfileFull(w, hw)
			if err != nil {
				t.Fatal(err)
			}
			p.Features = sieve.FeatureRows(full)
			p.GoldenCycles = hw.MeasureWorkload(w)
		}
	}
	plan, err := sieve.SampleMethodContext(context.Background(), rv.method, p, rv.opts)
	if err != nil {
		t.Fatal(err)
	}
	return mustMarshalPlan(t, plan)
}

func mustMarshalPlan(t *testing.T, plan *sieve.Plan) []byte {
	t.Helper()
	doc, err := marshalPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// servedPlans requests req's plan over every path that accepts it — the
// JSON /v1/sample envelope, the text/csv body with query options (CSV
// sources only) and a /v1/batch item — and returns each plan document by
// path name. Every path asks a fresh server, so each plan is computed rather
// than served from another path's cache entry.
func servedPlans(t *testing.T, req api.SampleRequest) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	out["json"] = servedPlan(t, newTestServer(t, Config{}).URL+"/v1/sample", "application/json", string(body))

	if req.ProfileCSV != "" {
		o := req.Options
		q := url.Values{}
		q.Set("method", o.Method)
		q.Set("seed", fmt.Sprint(o.Seed))
		if o.Stream {
			q.Set("stream", "true")
			q.Set("reservoir_size", fmt.Sprint(o.ReservoirSize))
		}
		out["text/csv"] = servedPlan(t, newTestServer(t, Config{}).URL+"/v1/sample?"+q.Encode(), "text/csv", req.ProfileCSV)
	}

	batch, err := json.Marshal(api.BatchRequest{Items: []api.SampleRequest{req}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(newTestServer(t, Config{}).URL+"/v1/batch", "application/json", strings.NewReader(string(batch)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br api.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 1 || br.Items[0].Status != http.StatusOK {
		t.Fatalf("batch: %+v", br.Items)
	}
	out["batch"] = br.Items[0].Plan
	return out
}

func servedPlan(t *testing.T, endpoint, contentType, body string) []byte {
	t.Helper()
	resp, err := http.Post(endpoint, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.PlanEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !json.Valid(env.Plan) {
		t.Fatalf("POST %s: status %d, plan %s", endpoint, resp.StatusCode, env.Plan)
	}
	return env.Plan
}
