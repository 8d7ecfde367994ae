package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/sampler"
	"github.com/gpusampling/sieve/internal/server"
)

var lmcFixture = filepath.Join("..", "..", "testdata", "profile_lmc_scale0.01.csv")

// streamPlan runs sieve -stream -profile-in lmcFixture -reservoir 8 -seed
// seed and returns the plan it builds.
func streamPlan(t *testing.T, seed int64) *sieve.Plan {
	t.Helper()
	cfg := base()
	cfg.ProfileIn, cfg.Stream, cfg.Reservoir, cfg.Seed = lmcFixture, true, 8, seed
	var plan *sieve.Plan
	cfg.planned = func(p *sieve.Plan) { plan = p }
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestStreamSeedMatchesService: `sieve -stream -reservoir 8 -seed N` on the
// lmc fixture plans what sieved plans for the same CSV body under
// ?stream=true&reservoir_size=8&seed=N, so -seed seeds the reservoirs as the
// service's seed does. The default -seed 0 keeps the plan stream mode has
// always built, pinned as the seed-1 CSV entry of the stream golden.
func TestStreamSeedMatchesService(t *testing.T) {
	csv, err := os.ReadFile(lmcFixture)
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(server.Config{}).Handler()
	plans := map[int64]*sieve.Plan{}
	for _, seed := range []int64{0, 7} {
		plan := streamPlan(t, seed)
		if !plan.Sampled {
			t.Fatalf("seed %d: an 8-row reservoir should sample the lmc fixture", seed)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/sample?stream=true&reservoir_size=8&seed="+strconv.FormatInt(seed, 10), bytes.NewReader(csv))
		req.Header.Set("Content-Type", "text/csv")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var env api.PlanEnvelope
		var served api.Plan
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("seed %d: sieved answered %d: %s", seed, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(env.Plan, &served); err != nil {
			t.Fatal(err)
		}
		if !samePlan(plan, &served) {
			t.Errorf("seed %d: the CLI's plan differs from sieved's", seed)
		}
		plans[seed] = plan
	}
	if reflect.DeepEqual(plans[0].Strata, plans[7].Strata) {
		t.Error("-seed 7 planned the default seed's reservoirs")
	}

	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "sampler", "testdata", "golden_stream.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Source    string          `json:"source"`
		Reservoir int             `json:"reservoir"`
		Seed      int64           `json:"seed"`
		Plan      json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(golden, &entries); err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Source == "csv" && e.Reservoir == 8 && e.Seed == 1 {
			if !bytes.Equal(doc, e.Plan) {
				t.Error("-seed 0 changed the default stream plan")
			}
			return
		}
	}
	t.Fatal("the stream golden has no csv entry at reservoir 8, seed 1")
}

// samePlan reports whether the wire plan w carries exactly plan p.
func samePlan(p *sieve.Plan, w *api.Plan) bool {
	if w.Theta != p.Theta || w.TotalInstructions != p.TotalInstructions || w.TierInvocations != p.TierInvocations ||
		w.Sampled != p.Sampled || w.Method != p.Method || len(w.Strata) != len(p.Strata) {
		return false
	}
	for i, s := range p.Strata {
		g := w.Strata[i]
		if g.Kernel != s.Kernel || g.Tier != int(s.Tier) || g.Representative != s.Representative ||
			g.Weight != s.Weight || g.InstructionSum != s.InstructionSum || !reflect.DeepEqual(g.Invocations, s.Invocations) {
			return false
		}
	}
	return true
}

// TestStreamRejectsNonSieveMethods: -stream under any method but
// sieve fails with sampler.Check's one message.
func TestStreamRejectsNonSieveMethods(t *testing.T) {
	for _, method := range sampler.Names() {
		if method == core.MethodSieve {
			continue
		}
		cfg := base()
		cfg.Workload, cfg.Stream, cfg.Method = "gru", true, method
		err := run(cfg)
		if want := sampler.Check(method, true); err == nil || err.Error() != want.Error() {
			t.Errorf("-method %s -stream: err = %v, want %v", method, err, want)
		}
	}
}
