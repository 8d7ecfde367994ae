package main

import (
	"os"
	"path/filepath"
	"testing"
)

// base returns a runConfig with the defaults the flag set would produce.
func base() runConfig {
	return runConfig{
		Scale: 0.01, Theta: 0.4,
		Policy: "dominant-cta-first", Splitter: "kde", Arch: "ampere",
	}
}

func TestRunEndToEnd(t *testing.T) {
	cfg := base()
	cfg.Workload, cfg.Validate = "gru", true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunPolicies(t *testing.T) {
	for _, policy := range []string{"first-chronological", "max-cta"} {
		cfg := base()
		cfg.Workload, cfg.Scale, cfg.Policy, cfg.Arch = "dwt2d", 1.0, policy, "turing"
		if err := run(cfg); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
	}
}

func TestRunProfileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "profile.csv")
	cfg := base()
	cfg.Workload, cfg.Scale, cfg.ProfileOut = "histo", 1.0, csv
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(csv); err != nil {
		t.Fatalf("profile CSV not written: %v", err)
	}
	// Load the CSV back instead of a workload.
	cfg = base()
	cfg.ProfileIn, cfg.Validate = csv, true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunStream(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "profile.csv")
	cfg := base()
	cfg.Workload, cfg.Scale, cfg.ProfileOut = "histo", 1.0, csv
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}

	// Stream the CSV end to end without materializing it.
	cfg = base()
	cfg.ProfileIn, cfg.Stream = csv, true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}

	// A tiny reservoir forces the sampled fallback; the run must still work.
	cfg.Reservoir = 4
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}

	// Streaming straight from a generated workload, with validation: the
	// sampler streams the in-memory rows and still predicts.
	cfg = base()
	cfg.Workload, cfg.Stream, cfg.Validate = "gru", true, true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}

	// -profile-out cannot be served from the never-materialized CSV stream.
	cfg = base()
	cfg.ProfileIn, cfg.Stream, cfg.ProfileOut = csv, true, filepath.Join(dir, "again.csv")
	if err := run(cfg); err == nil {
		t.Fatal("want error for -stream -profile-in -profile-out")
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*runConfig)
	}{
		{"no input", func(c *runConfig) { c.Scale = 0.1 }},
		{"bad policy", func(c *runConfig) { c.Workload, c.Policy = "gru", "nope" }},
		{"bad arch", func(c *runConfig) { c.Workload, c.Arch = "gru", "tpu" }},
		{"unknown workload", func(c *runConfig) { c.Workload = "zzz" }},
		{"missing profile", func(c *runConfig) { c.ProfileIn = "/does/not/exist.csv" }},
		{"missing profile stream", func(c *runConfig) { c.ProfileIn, c.Stream = "/does/not/exist.csv", true }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base()
			c.mutate(&cfg)
			if err := run(cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestRunCharacterize(t *testing.T) {
	if err := runCharacterize("gru", 0.01, 0.4, "ampere", ""); err != nil {
		t.Fatal(err)
	}
	if err := runCharacterize("", 0.01, 0.4, "ampere", ""); err == nil {
		t.Fatal("want error without input")
	}
	if err := runCharacterize("gru", 0.01, 0.4, "apu", ""); err == nil {
		t.Fatal("want error for unknown arch")
	}
}

func TestRunFromCustomSpec(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	content := `{
	  "Name": "custom", "Suite": "Custom",
	  "Kernels": 3, "FullInvocations": 400, "Seed": 5,
	  "Tier1Frac": 0.4, "LowVarCoVLo": 0.05, "LowVarCoVHi": 0.3,
	  "Uniformity": 0.5, "LocalityJitter": 0.02
	}`
	if err := os.WriteFile(spec, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := base()
	cfg.SpecFile, cfg.Scale, cfg.Splitter, cfg.Validate = spec, 1.0, "gmm", true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg = base()
	cfg.SpecFile, cfg.Scale = "/missing/spec.json", 1.0
	if err := run(cfg); err == nil {
		t.Fatal("want error for missing spec file")
	}
}

func TestRunRejectsUnknownSplitter(t *testing.T) {
	cfg := base()
	cfg.Workload, cfg.Splitter = "gru", "median"
	if err := run(cfg); err == nil {
		t.Fatal("want error for unknown splitter")
	}
	cfg = base()
	cfg.Workload, cfg.Scale, cfg.Splitter, cfg.Validate = "gst", 1.0, "equal-width", true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}
