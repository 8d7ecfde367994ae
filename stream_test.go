package sieve

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestSampleStreamMatchesSample drives stream mode through the public API end
// to end on real generated workloads: whenever every kernel fits its
// reservoir the streamed plan must be byte-identical to Sample's, at any
// parallelism, whether the rows arrive from a slice or straight from a
// profile CSV.
func TestSampleStreamMatchesSample(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload pipelines in -short mode")
	}
	hw, err := NewHardware(Ampere())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lmc", "spt", "dwt2d"} {
		t.Run(name, func(t *testing.T) {
			w, err := GenerateWorkload(name, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			profile, err := ProfileInstructionCounts(w, hw)
			if err != nil {
				t.Fatal(err)
			}
			rows := ProfileRows(profile)
			want, err := Sample(rows, Options{})
			if err != nil {
				t.Fatal(err)
			}

			for _, parallelism := range []int{1, 3, 0} {
				opts := MethodOptions{
					Core:          Options{Parallelism: parallelism},
					Stream:        true,
					ReservoirSize: len(rows) + 1, // every kernel fits
				}
				got, err := SampleMethod("", &MethodProfile{Rows: rows}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Sampled {
					t.Fatalf("parallelism %d: plan sampled despite roomy reservoir", parallelism)
				}
				if !reflect.DeepEqual(got.Strata, want.Strata) {
					t.Fatalf("parallelism %d: streamed strata diverge from Sample", parallelism)
				}
				if got.TotalInstructions != want.TotalInstructions || got.TierInvocations != want.TierInvocations {
					t.Fatalf("parallelism %d: streamed summary diverges from Sample", parallelism)
				}
			}

			// The CSV route: WriteProfileCSV → CSVSource must land on the
			// same plan without materializing the table.
			var buf bytes.Buffer
			if err := WriteProfileCSV(profile, &buf); err != nil {
				t.Fatal(err)
			}
			csvSrc, err := CSVSource(&buf)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SampleMethod("", &MethodProfile{Source: csvSrc}, MethodOptions{Stream: true, ReservoirSize: len(rows) + 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Strata, want.Strata) {
				t.Fatal("CSV-source strata diverge from Sample")
			}

			// Predictions from the streamed plan match the materialized one.
			golden := hw.MeasureWorkload(w)
			src := func(i int) (float64, error) { return golden[i], nil }
			wantPred, err := want.Predict(src)
			if err != nil {
				t.Fatal(err)
			}
			gotPred, err := got.Predict(src)
			if err != nil {
				t.Fatal(err)
			}
			if *wantPred != *gotPred {
				t.Fatalf("streamed prediction %+v, want %+v", gotPred, wantPred)
			}
		})
	}
}

// TestSampleStreamBoundedReservoir squeezes a real workload through a tiny
// reservoir: the plan degrades gracefully (Sampled flag, exact totals and
// tier counts, usable Predict) instead of failing or silently lying.
func TestSampleStreamBoundedReservoir(t *testing.T) {
	hw, err := NewHardware(Ampere())
	if err != nil {
		t.Fatal(err)
	}
	w, err := GenerateWorkload("gru", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := ProfileInstructionCounts(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	rows := ProfileRows(profile)
	exact, err := Sample(rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := SampleMethod("", &MethodProfile{Rows: rows}, MethodOptions{Stream: true, ReservoirSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Sampled {
		t.Fatal("an 8-row reservoir must force the sampled fallback")
	}
	if plan.TierInvocations != exact.TierInvocations {
		t.Fatalf("tier counts %v, want exact %v", plan.TierInvocations, exact.TierInvocations)
	}
	rel := (plan.TotalInstructions - exact.TotalInstructions) / exact.TotalInstructions
	if rel < -1e-9 || rel > 1e-9 {
		t.Fatalf("total instructions drifted: %g vs %g", plan.TotalInstructions, exact.TotalInstructions)
	}
	if _, err := plan.Predict(func(i int) (float64, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	golden := hw.MeasureWorkload(w)
	if _, err := plan.Speedup(golden); err == nil {
		t.Fatal("Speedup must refuse a sampled plan")
	}
}

// TestCSVSourceOwnsKernelNames streams rows from a body that, as in sieved,
// is a string view of a byte buffer, then overwrites the buffer: no row's
// kernel name may change, so a retained row never aliases its input.
func TestCSVSourceOwnsKernelNames(t *testing.T) {
	text, err := os.ReadFile("testdata/profile_lmc_scale0.01.csv")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReadProfileCSV(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Clone(text)
	src, err := CSVSource(strings.NewReader(unsafe.String(unsafe.SliceData(body), len(body))))
	if err != nil {
		t.Fatal(err)
	}
	var kernels []string
	for {
		row, err := src()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, row.Kernel)
	}
	for i := range body {
		body[i] = '#'
	}
	if len(kernels) != len(ref.Records) {
		t.Fatalf("%d rows, want %d", len(kernels), len(ref.Records))
	}
	for i, k := range kernels {
		if k != ref.Records[i].Kernel {
			t.Fatalf("row %d kernel %q, want %q", i, k, ref.Records[i].Kernel)
		}
	}
}
