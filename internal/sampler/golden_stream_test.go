package sampler_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/gpusampling/sieve"
)

// goldenStreamFile pins the plan bytes of stream mode.
const goldenStreamFile = "testdata/golden_stream.json"

// lmcFixture is the checked-in lmc@0.01 profile CSV that the service tests
// and the stream golden share.
var lmcFixture = filepath.Join("..", "..", "testdata", "profile_lmc_scale0.01.csv")

// streamEntry is one pinned stream plan: a workload profile streamed from its
// rows, or a profile CSV streamed row by row, at one reservoir size (0 is the
// default) and seed.
type streamEntry struct {
	Source    string          `json:"source"`
	Workload  string          `json:"workload,omitempty"`
	Scale     float64         `json:"scale,omitempty"`
	Reservoir int             `json:"reservoir"`
	Seed      int64           `json:"seed"`
	Sampled   bool            `json:"sampled"`
	Plan      json.RawMessage `json:"plan"`
}

// streamOptions are the golden options of TestGoldenMethodPlans in stream
// mode.
func streamOptions(reservoir int, seed int64) sieve.MethodOptions {
	return sieve.MethodOptions{
		Core: sieve.Options{
			Theta:         sieve.DefaultTheta,
			Selection:     sieve.SelectDominantCTAFirst,
			Tier3Splitter: sieve.SplitKDE,
			Parallelism:   2,
		},
		Seed:          seed,
		Stream:        true,
		ReservoirSize: reservoir,
	}
}

// TestGoldenStreamPlans pins the JSON bytes of stream-mode plans: gru and
// ssd-mobilenet at scale 0.02 streamed from their rows, and the lmc fixture
// streamed from its CSV, each at seeds 1 and 7 with the default reservoir and
// with an 8-row one. An 8-row reservoir overflows, so those plans must be
// Sampled, and the seed picks which rows each reservoir keeps. The default
// reservoir holds every kernel, so those plans must equal the non-stream sieve
// plans byte for byte: the golden_methods.json entries for the workloads, the
// materialized plan of the same rows for the CSV. Regenerate with
// -update-golden only when a plan changes on purpose.
func TestGoldenStreamPlans(t *testing.T) {
	methodPlans := goldenSievePlans(t)
	var got []streamEntry
	for _, wl := range []struct {
		name  string
		scale float64
	}{{"gru", 0.02}, {"ssd-mobilenet", 0.02}} {
		p := methodProfile(t, wl.name, wl.scale, "sieve")
		for _, seed := range []int64{1, 7} {
			for _, reservoir := range []int{0, 8} {
				plan, err := sieve.SampleMethodContext(context.Background(), "sieve", p, streamOptions(reservoir, seed))
				if err != nil {
					t.Fatalf("%s@%g reservoir %d seed %d: %v", wl.name, wl.scale, reservoir, seed, err)
				}
				e := newStreamEntry(t, "workload", reservoir, seed, plan)
				e.Workload, e.Scale = wl.name, wl.scale
				if reservoir == 0 {
					key := fmt.Sprintf("%s@%g seed %d", wl.name, wl.scale, seed)
					if want, ok := methodPlans[key]; !ok || !bytes.Equal(e.Plan, want) {
						t.Errorf("%s: default-reservoir stream plan differs from the sieve plan in %s", key, goldenMethodsFile)
					}
				}
				got = append(got, e)
			}
		}
	}

	csv, err := os.ReadFile(lmcFixture)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sieve.ReadProfileCSV(bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 7} {
		for _, reservoir := range []int{0, 8} {
			src, err := sieve.CSVSource(bytes.NewReader(csv))
			if err != nil {
				t.Fatal(err)
			}
			plan, err := sieve.SampleMethodContext(context.Background(), "sieve", &sieve.MethodProfile{Source: src}, streamOptions(reservoir, seed))
			if err != nil {
				t.Fatalf("lmc csv reservoir %d seed %d: %v", reservoir, seed, err)
			}
			e := newStreamEntry(t, "csv", reservoir, seed, plan)
			if reservoir == 0 {
				want, err := sieve.SampleMethod("sieve", &sieve.MethodProfile{Rows: sieve.ProfileRows(prof)}, sieve.MethodOptions{Core: streamOptions(0, seed).Core, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if doc, _ := json.Marshal(want); !bytes.Equal(e.Plan, doc) {
					t.Errorf("lmc csv seed %d: default-reservoir stream plan differs from the materialized sieve plan", seed)
				}
			}
			got = append(got, e)
		}
	}

	checkGolden(t, goldenStreamFile, got, func(e streamEntry) (string, json.RawMessage) {
		return fmt.Sprintf("%s %s@%g reservoir %d seed %d", e.Source, e.Workload, e.Scale, e.Reservoir, e.Seed), e.Plan
	})
}

// newStreamEntry records plan as a golden entry, checking that the plan is
// Sampled exactly when the reservoir was set small enough to overflow.
func newStreamEntry(t *testing.T, source string, reservoir int, seed int64, plan *sieve.Plan) streamEntry {
	t.Helper()
	if want := reservoir == 8; plan.Sampled != want {
		t.Errorf("%s reservoir %d seed %d: Sampled = %v, want %v", source, reservoir, seed, plan.Sampled, want)
	}
	doc, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	return streamEntry{Source: source, Reservoir: reservoir, Seed: seed, Sampled: plan.Sampled, Plan: doc}
}

// goldenSievePlans reads the sieve entries of golden_methods.json, keyed by
// "workload@scale seed N".
func goldenSievePlans(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile(goldenMethodsFile)
	if err != nil {
		t.Fatal(err)
	}
	var entries []methodEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("%s: %v", goldenMethodsFile, err)
	}
	out := map[string]json.RawMessage{}
	for _, e := range entries {
		if e.Method == "sieve" {
			out[fmt.Sprintf("%s@%g seed %d", e.Workload, e.Scale, e.Seed)] = e.Plan
		}
	}
	return out
}
