package profiler

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"github.com/gpusampling/sieve/internal/core"
)

// TestCSVScannerMatchesReadCSV streams a profile record by record and checks
// it yields exactly what the materializing reader yields.
func TestCSVScannerMatchesReadCSV(t *testing.T) {
	w := testWorkload(t, "dwt2d", 1.0)
	p, err := Full(w, testHW(t))
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
	p, err := InstructionCounts(w, testHW(t))
	if err != nil {
		t.Fatal(err)
	}
	p.Collected = []string{"instruction_count", "instruction_count"}
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v, want duplicate-column rejection", err)
	}
}

// TestCSVScannerErrorLines pins the physical line each error names: blank
// lines and a quoted kernel name spanning two lines count as lines, a bad
// field inside a multi-line record names the line that holds it, and a
// field-count error names its line once. Every case must also match the
// encoding/csv reference parse.
func TestCSVScannerErrorLines(t *testing.T) {
	const h = "kernel,index,seq,cta_size,instruction_count\n"
	const atoiX = `strconv.Atoi: parsing "x": invalid syntax`
	cases := []struct{ in, want string }{
		{h + "\n\nk,x,0,128,5\n", "profiler: line 4: bad index: " + atoiX},
		{h + "k,0,0,128,5\nk,1,1\n", "profiler: record on line 3: wrong number of fields"},
		{h + "\nk,0,0,128,5\n\nk,1,1,128,5,6\n", "profiler: record on line 5: wrong number of fields"},
		{h + "\"a\nb\",0,0,128,5\nk,1,1,x,5\n", "profiler: line 4: bad cta_size: " + atoiX},
		{h + "\"a\nb\",x,0,128,5\n", "profiler: line 3: bad index: " + atoiX},
		{h + "k,0,0,128,5\n\n\"a\nb\",1,1,128,5\n\nk,2,2\n", "profiler: record on line 7: wrong number of fields"},
		{h + "k,0,0,128,5\r\n\r\nk,1,1,128,zz\r\n",
			`profiler: line 4: bad instruction_count: strconv.ParseFloat: parsing "zz": invalid syntax`},
		{h + "\nk,0,0,128,5\nk\"q,1,1,128,5\n", `profiler: parse error on line 4, column 2: bare " in non-quoted-field`},
	}
	for _, tc := range cases {
		_, _, err := scanAll(tc.in)
		if fmt.Sprint(err) != tc.want {
			t.Errorf("%q: err = %v, want %s", tc.in, err, tc.want)
		}
		if _, _, ref := referenceScan(tc.in); fmt.Sprint(ref) != tc.want {
			t.Errorf("%q: reference err = %v, want %s", tc.in, ref, tc.want)
		}
	}
}

// TestParsedKernelsOwnTheirStrings parses a body that, as in sieved, is a
// string view of a byte buffer, then overwrites the buffer: no parsed kernel
// name may change, so no row aliases its input. It covers the fast path and
// a hand-off to encoding/csv.
func TestParsedKernelsOwnTheirStrings(t *testing.T) {
	fixture := loadLMCFixture(t)
	quoted := strings.Replace(fixture, "\n", "\n\"q,1\",-1,0,128,5\n", 1) // hand-off after the header
	for name, text := range map[string]string{"fast path": fixture, "hand-off": quoted} {
		t.Run(name, func(t *testing.T) {
			parsers := map[string]func(string) ([]core.InvocationProfile, error){
				"ParseRows": ParseRows,
				"ReadCSV": func(s string) ([]core.InvocationProfile, error) {
					p, err := ReadCSV(strings.NewReader(s))
					if err != nil {
						return nil, err
					}
					return p.Rows(), nil
				},
			}
			_, recs, err := referenceScan(text)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]string, len(recs))
			for i, r := range recs {
				want[i] = r.Kernel
			}
			for pname, parse := range parsers {
				body := []byte(text)
				rows, err := parse(unsafe.String(unsafe.SliceData(body), len(body)))
				if err != nil {
					t.Fatalf("%s: %v", pname, err)
				}
				kernels := make([]string, len(rows))
				for i, r := range rows {
					kernels[i] = r.Kernel
				}
				if !reflect.DeepEqual(kernels, want) {
					t.Fatalf("%s: kernel names differ from the reference parse", pname)
				}
				for i := range body {
					body[i] = '#'
				}
				if !reflect.DeepEqual(kernels, want) {
					t.Fatalf("%s: kernel names changed with the input buffer", pname)
				}
			}
		})
	}
}

// TestParseRowsAllocs pins ParseRows's allocations on the lmc fixture to the
// distinct kernel names plus a constant: one interned string per kernel, not
// one allocation per row.
func TestParseRowsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	fixture := loadLMCFixture(t)
	rows, err := ParseRows(fixture)
	if err != nil {
		t.Fatal(err)
	}
	kernels := make(map[string]bool)
	for _, r := range rows {
		kernels[r.Kernel] = true
	}
	bound := float64(len(kernels) + 64)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ParseRows(fixture); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Fatalf("ParseRows allocates %.0f times on %d rows, want at most %.0f (%d kernels + 64)",
			allocs, len(rows), bound, len(kernels))
	}
	t.Logf("%.0f allocs for %d rows of %d kernels", allocs, len(rows), len(kernels))
}

// loadLMCFixture reads the checked-in lmc@0.01 profile.
func loadLMCFixture(tb testing.TB) string {
	tb.Helper()
	b, err := os.ReadFile("../../testdata/profile_lmc_scale0.01.csv")
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}
