package sampler_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/internal/pks"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_methods.json from the current code")

// goldenMethodsFile pins the plan bytes of every bundled methodology.
const goldenMethodsFile = "testdata/golden_methods.json"

// methodProfile builds the sampler input from what sieved's workload mode
// plans from (internal/server Server.profile): generate the workload,
// profile it on the ampere model, and add PKS's feature vectors and golden
// cycles for pks. sieved hands every method the whole cached profile,
// memoized, but only pks reads the features and no method's plan depends
// on the memo, so the literal profile pins the same bytes.
func methodProfile(tb testing.TB, workload string, scale float64, method string) *sieve.MethodProfile {
	tb.Helper()
	w, err := sieve.GenerateWorkload(workload, scale)
	if err != nil {
		tb.Fatal(err)
	}
	arch, err := sieve.ResolveArch("ampere")
	if err != nil {
		tb.Fatal(err)
	}
	hw, err := sieve.NewHardware(arch)
	if err != nil {
		tb.Fatal(err)
	}
	counts, err := sieve.ProfileInstructionCounts(w, hw)
	if err != nil {
		tb.Fatal(err)
	}
	p := &sieve.MethodProfile{Rows: sieve.ProfileRows(counts)}
	if method == "pks" {
		full, err := sieve.ProfileFull(w, hw)
		if err != nil {
			tb.Fatal(err)
		}
		p.Features = sieve.FeatureRows(full)
		p.GoldenCycles = hw.MeasureWorkload(w)
	}
	return p
}

// methodEntry is one pinned plan of golden_methods.json.
type methodEntry struct {
	Workload string          `json:"workload"`
	Scale    float64         `json:"scale"`
	Method   string          `json:"method"`
	Seed     int64           `json:"seed"`
	Plan     json.RawMessage `json:"plan"`
}

// TestGoldenMethodPlans pins the JSON bytes of the plan each of sieve,
// twophase, rss and pks produces on two workload-mode profiles at two seeds,
// with the options sieved resolves for a request that sets only the method
// and the seed. Kernel and RNG optimizations (the bounded Lloyd step behind
// the pks k-sweep, rss's reused generator) must leave every byte unchanged.
// Regenerate with -update-golden only when a plan changes on purpose.
func TestGoldenMethodPlans(t *testing.T) {
	var got []methodEntry
	for _, wl := range []struct {
		name  string
		scale float64
	}{{"gru", 0.02}, {"ssd-mobilenet", 0.02}} {
		for _, method := range []string{"sieve", "twophase", "rss", "pks"} {
			p := methodProfile(t, wl.name, wl.scale, method)
			for _, seed := range []int64{1, 7} {
				plan, err := sieve.SampleMethodContext(context.Background(), method, p, sieve.MethodOptions{
					Core: sieve.Options{
						Theta:         sieve.DefaultTheta,
						Selection:     sieve.SelectDominantCTAFirst,
						Tier3Splitter: sieve.SplitKDE,
						Parallelism:   2,
					},
					Seed: seed,
					PKS:  pks.Options{Seed: seed, Parallelism: 2},
				})
				if err != nil {
					t.Fatalf("%s@%g %s seed %d: %v", wl.name, wl.scale, method, seed, err)
				}
				doc, err := json.Marshal(plan)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, methodEntry{wl.name, wl.scale, method, seed, doc})
			}
		}
	}
	checkGolden(t, goldenMethodsFile, got, func(e methodEntry) (string, json.RawMessage) {
		return fmt.Sprintf("%s@%g %s seed %d", e.Workload, e.Scale, e.Method, e.Seed), e.Plan
	})
}

// checkGolden compares got, one JSON entry per line, with the fixture file
// byte for byte, or rewrites the file under -update-golden. On a mismatch it
// names every entry whose plan drifted; describe labels an entry and returns
// its plan.
func checkGolden[E any](t *testing.T, file string, got []E, describe func(E) (string, json.RawMessage)) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, e := range got {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		if i < len(got)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	var wantEntries []E
	if err := json.Unmarshal(want, &wantEntries); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	for i, e := range got {
		name, plan := describe(e)
		if i >= len(wantEntries) {
			t.Errorf("extra plan %s", name)
			continue
		}
		if _, w := describe(wantEntries[i]); !bytes.Equal(plan, w) {
			t.Errorf("%s: plan bytes drifted from %s", name, file)
		}
	}
	t.Fatalf("plans differ from %s", file)
}
