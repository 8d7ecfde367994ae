package sieve

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestEndToEndWorkflow exercises the full public workflow of the package doc:
// generate → profile → sample → predict, validating accuracy against the
// golden full-run measurement.
func TestEndToEndWorkflow(t *testing.T) {
	w, err := GenerateWorkload("lmc", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := NewHardware(Ampere())
	if err != nil {
		t.Fatal(err)
	}
	profile, err := ProfileInstructionCounts(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Sample(ProfileRows(profile), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumStrata() < w.NumKernels() {
		t.Fatalf("%d strata for %d kernels", plan.NumStrata(), w.NumKernels())
	}
	pred, err := plan.Predict(func(i int) (float64, error) {
		return hw.Cycles(&w.Invocations[i]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	golden := hw.TotalCycles(w)
	if errFrac := math.Abs(pred.Cycles-golden) / golden; errFrac > 0.05 {
		t.Fatalf("end-to-end error %.2f%% exceeds 5%%", errFrac*100)
	}
	// Speedup: the plan simulates far less than the full run.
	per := hw.MeasureWorkload(w)
	sp, err := plan.Speedup(per)
	if err != nil {
		t.Fatal(err)
	}
	if sp < 10 {
		t.Fatalf("speedup %.1fx implausibly low", sp)
	}
}

func TestPublicWorkloadCatalog(t *testing.T) {
	specs := WorkloadCatalog()
	if len(specs) != 40 {
		t.Fatalf("catalog = %d workloads", len(specs))
	}
	if _, err := WorkloadByName("gst"); err != nil {
		t.Fatal(err)
	}
	cactus, err := WorkloadsBySuite(SuiteCactus)
	if err != nil || len(cactus) != 10 {
		t.Fatalf("cactus = %d, %v", len(cactus), err)
	}
	spec, _ := WorkloadByName("dwt2d")
	w, err := GenerateFromSpec(spec, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumInvocations() != spec.FullInvocations {
		t.Fatalf("generated %d invocations, want %d", w.NumInvocations(), spec.FullInvocations)
	}
}

func TestPublicProfileCSVRoundTrip(t *testing.T) {
	w, err := GenerateWorkload("histo", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := NewHardware(Turing())
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileFull(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProfileCSV(p, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfileCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(p.Records) {
		t.Fatal("CSV round trip lost records")
	}
	rows := FeatureRows(got)
	if len(rows) != len(p.Records) || len(rows[0]) != len(CharacteristicNames()) {
		t.Fatal("feature rows malformed")
	}
}

func TestPublicPKSBaseline(t *testing.T) {
	w, err := GenerateWorkload("gaussian", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := NewHardware(Ampere())
	if err != nil {
		t.Fatal(err)
	}
	counts, err := ProfileInstructionCounts(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ProfileFull(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	golden := hw.MeasureWorkload(w)
	plan, err := SampleMethod("pks", &MethodProfile{
		Rows: ProfileRows(counts), Features: FeatureRows(full), GoldenCycles: golden,
	}, MethodOptions{PKS: PKSOptions{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if k := plan.NumStrata(); k < 1 || k > 20 {
		t.Fatalf("PKS chose k = %d", k)
	}
	pred, err := plan.Predict(func(i int) (float64, error) { return golden[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	if pred.Cycles <= 0 {
		t.Fatal("degenerate PKS prediction")
	}
	// PKSSelect is the clustering behind the plan: same k.
	sel, err := PKSSelect(FeatureRows(full), golden, PKSOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != plan.NumStrata() {
		t.Fatalf("PKSSelect chose k = %d, the plan has %d clusters", sel.K, plan.NumStrata())
	}
}

func TestPublicTierFractions(t *testing.T) {
	w, err := GenerateWorkload("gms", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := NewHardware(Ampere())
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileInstructionCounts(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := TierFractions(ProfileRows(p), []float64{0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fr {
		if math.Abs(f[0]+f[1]+f[2]-1) > 1e-9 {
			t.Fatalf("fractions %v do not sum to 1", f)
		}
	}
}

// TestTraceAndSimulateRepresentatives exercises the Section V-G workflow via
// the public API: sample, trace only the representatives, simulate them
// serially and in parallel.
func TestTraceAndSimulateRepresentatives(t *testing.T) {
	w, err := GenerateWorkload("mri-g", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := NewHardware(Ampere())
	if err != nil {
		t.Fatal(err)
	}
	profile, err := ProfileInstructionCounts(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Sample(ProfileRows(profile), Options{})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := GeneratePlanTraces(w, plan, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != plan.NumStrata() {
		t.Fatalf("%d traces for %d strata", len(traces), plan.NumStrata())
	}
	// Round-trip one trace through the text format.
	var buf bytes.Buffer
	if err := WriteTrace(traces[0], &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err != nil {
		t.Fatal(err)
	}
	simulator, err := NewSimulator(Ampere())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := simulator.SimulateAll(traces)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := simulator.SimulateParallel(traces, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].SMCycles != parallel[i].SMCycles {
			t.Fatal("parallel dispatch changed results")
		}
		if serial[i].Cycles <= 0 {
			t.Fatal("degenerate simulated cycles")
		}
	}
}

func TestOptionsDefaultsMatchPaper(t *testing.T) {
	if DefaultTheta != 0.4 {
		t.Fatalf("default θ = %g, paper uses 0.4", DefaultTheta)
	}
	if len(CharacteristicNames()) != 12 {
		t.Fatal("PKS profiles 12 characteristics")
	}
	if Ampere().Name != "RTX 3080" || Turing().Name != "RTX 2080 Ti" {
		t.Fatal("platform names")
	}
}

func TestResolveArch(t *testing.T) {
	a, err := ResolveArch("ampere")
	if err != nil || a.Name != "RTX 3080" {
		t.Fatalf("ampere: %v %v", a.Name, err)
	}
	tur, err := ResolveArch("turing")
	if err != nil || tur.Name != "RTX 2080 Ti" {
		t.Fatalf("turing: %v %v", tur.Name, err)
	}
	if _, err := ResolveArch("/no/such/file.json"); err == nil {
		t.Fatal("want error for missing file")
	}
	// Round-trip a custom config through a file.
	dir := t.TempDir()
	path := filepath.Join(dir, "custom.json")
	custom := Ampere()
	custom.Name = "prototype"
	custom.SMs = 96
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteArchJSON(custom, f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := ResolveArch(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != custom {
		t.Fatalf("file round trip changed arch: %+v", got)
	}
}
