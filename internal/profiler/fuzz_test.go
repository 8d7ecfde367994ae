package profiler

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/gpusampling/sieve/internal/cudamodel"
	"github.com/gpusampling/sieve/internal/gpu"
	"github.com/gpusampling/sieve/internal/workloads"
)

// FuzzReadCSV exercises the profile-CSV parser with arbitrary input: it must
// never panic, and any accepted profile must survive a write/read round
// trip once the caller-supplied fields are filled in.
func FuzzReadCSV(f *testing.F) {
	w := testWorkloadForFuzz(f)
	hw := testHWForFuzz(f)
	full, err := NewFullProfiler().Profile(w, hw)
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := full.WriteCSV(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("")
	f.Add("kernel,index,seq,cta_size,instruction_count\nk,0,0,128,5\n")
	f.Add("kernel,index\nbroken\n")
	// Duplicate metric columns must be rejected, not parsed last-one-wins.
	f.Add("kernel,index,seq,cta_size,instruction_count,instruction_count\nk,0,0,128,5,6\n")
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		p.Workload = "fuzz"
		if err := p.Validate(); err != nil {
			// ReadCSV does not enforce full profile validity (indices may be
			// non-chronological in foreign CSVs); it must only parse safely.
			return
		}
		var buf bytes.Buffer
		if err := p.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted profile cannot be rewritten: %v", err)
		}
		if _, err := ReadCSV(&buf); err != nil {
			t.Fatalf("rewritten profile cannot be reread: %v", err)
		}
	})
}

// FuzzCSVScanner checks the streaming reader and ParseRows against the
// materializing reader: all must accept/reject the same inputs and, when they
// accept, produce identical record streams and rows — so neither the
// bounded-memory path nor the direct row parse can silently diverge from the
// reference parse. ParseRows must also fail with ReadCSV's exact error.
func FuzzCSVScanner(f *testing.F) {
	f.Add("kernel,index,seq,cta_size,instruction_count\nk,0,0,128,5\nk,1,1,64,9\n")
	f.Add("")
	f.Add("kernel,index,seq,cta_size,instruction_count\n")
	f.Add("kernel,index,seq,cta_size,instruction_count\nk,0,0,128,x\n")
	f.Add("kernel,index,seq,cta_size,instruction_count,instruction_count\nk,0,0,128,5,6\n")
	f.Fuzz(func(t *testing.T, in string) {
		want, wantErr := ReadCSV(strings.NewReader(in))
		var got []Record
		var gotErr error
		sc, err := NewCSVScanner(strings.NewReader(in))
		if err != nil {
			gotErr = err
		} else {
			for sc.Next() {
				got = append(got, sc.Record())
			}
			gotErr = sc.Err()
			if gotErr == nil && len(got) == 0 {
				gotErr = fmt.Errorf("no records") // ReadCSV rejects empty tables
			}
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("accept/reject divergence: ReadCSV err=%v scanner err=%v", wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want.Records) {
			t.Fatal("streamed records diverge from materialized records")
		}
		rows, rowsErr := ParseRows(in)
		if fmt.Sprint(rowsErr) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseRows err=%v, ReadCSV err=%v", rowsErr, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(rows, want.Rows()) {
			t.Fatal("ParseRows rows diverge from ReadCSV's Rows")
		}
	})
}

func testWorkloadForFuzz(f *testing.F) *cudamodel.Workload {
	f.Helper()
	spec, err := workloads.ByName("dwt2d")
	if err != nil {
		f.Fatal(err)
	}
	w, err := workloads.Generate(spec, 1.0)
	if err != nil {
		f.Fatal(err)
	}
	return w
}

func testHWForFuzz(f *testing.F) *gpu.Model {
	f.Helper()
	m, err := gpu.NewModel(gpu.Ampere())
	if err != nil {
		f.Fatal(err)
	}
	return m
}
