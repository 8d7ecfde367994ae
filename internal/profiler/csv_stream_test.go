package profiler

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/gpusampling/sieve/internal/core"
)

// TestCSVScannerMatchesReadCSV streams a profile record by record and checks
// it yields exactly what the materializing reader yields.
func TestCSVScannerMatchesReadCSV(t *testing.T) {
	w := testWorkload(t, "dwt2d", 1.0)
	p, err := NewFullProfiler().Profile(w, testHW(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	want, err := ReadCSV(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewCSVScanner(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.Collected(), want.Collected) {
		t.Fatalf("collected %v, want %v", sc.Collected(), want.Collected)
	}
	var got []Record
	for sc.Next() {
		got = append(got, sc.Record())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Records) {
		t.Fatal("streamed records diverge from materialized records")
	}
	rows, err := ParseRows(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want.Rows()) {
		t.Fatal("ParseRows rows diverge from the materialized table's rows")
	}
	if _, err := ParseRows("kernel,index,seq,cta_size,instruction_count\n"); !errors.Is(err, core.ErrEmptyProfile) {
		t.Fatalf("header-only ParseRows err = %v, want ErrEmptyProfile", err)
	}
}

func TestReadCSVFunc(t *testing.T) {
	const csv = "kernel,index,seq,cta_size,instruction_count\nk,0,0,128,5\nk,1,1,128,7\n"
	var n int
	collected, err := ReadCSVFunc(strings.NewReader(csv), func(rec Record) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(collected) != 1 || collected[0] != "instruction_count" {
		t.Fatalf("n=%d collected=%v", n, collected)
	}
	// A callback error aborts the scan.
	boom := fmt.Errorf("stop")
	n = 0
	if _, err := ReadCSVFunc(strings.NewReader(csv), func(Record) error { n++; return boom }); err != boom {
		t.Fatalf("err = %v, want callback error", err)
	}
	if n != 1 {
		t.Fatalf("callback ran %d times after aborting, want 1", n)
	}
}

func TestCSVScannerErrors(t *testing.T) {
	if _, err := NewCSVScanner(strings.NewReader("")); err == nil {
		t.Fatal("want header error for empty input")
	}
	if _, err := NewCSVScanner(strings.NewReader("kernel,index,seq,cta_size,instruction_count,instruction_count\n")); err == nil {
		t.Fatal("want error for duplicate metric columns")
	}
	sc, err := NewCSVScanner(strings.NewReader("kernel,index,seq,cta_size,instruction_count\nk,zap,0,128,5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Next() {
		t.Fatal("Next succeeded on a bad row")
	}
	if sc.Err() == nil {
		t.Fatal("scanner swallowed the row error")
	}
	if sc.Next() {
		t.Fatal("Next kept going after an error")
	}
}

// TestWriteCSVRejectsDuplicateCollected: the writer half of the
// duplicate-column fix — a profile whose Collected list repeats a metric
// would serialize into a CSV the reader (rightly) rejects.
func TestWriteCSVRejectsDuplicateCollected(t *testing.T) {
	w := testWorkload(t, "dwt2d", 1.0)
	p, err := NewInstructionCountProfiler().Profile(w, testHW(t))
	if err != nil {
		t.Fatal(err)
	}
	p.Collected = []string{"instruction_count", "instruction_count"}
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v, want duplicate-column rejection", err)
	}
}
