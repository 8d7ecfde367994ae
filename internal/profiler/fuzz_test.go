package profiler

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
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
	full, err := Full(w, hw)
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

// FuzzCSVScanner checks the three ways into CSVScanner against each other:
// the streaming reader and ParseRows must accept/reject the same inputs as
// the materializing ReadCSV and, when they accept, produce identical record
// streams and rows, floats compared bit for bit. ParseRows must also fail
// with ReadCSV's exact error. FuzzCSVScannerReference checks the scanner
// itself against encoding/csv.
func FuzzCSVScanner(f *testing.F) {
	f.Add("kernel,index,seq,cta_size,instruction_count\nk,0,0,128,5\nk,1,1,64,9\n")
	f.Add("")
	f.Add("kernel,index,seq,cta_size,instruction_count\n")
	f.Add("kernel,index,seq,cta_size,instruction_count\nk,0,0,128,x\n")
	f.Add("kernel,index,seq,cta_size,instruction_count,instruction_count\nk,0,0,128,5,6\n")
	f.Add("kernel,index,seq,cta_size,instruction_count\nk,0,0,128,NaN\n")
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
		rows, rowsErr := ParseRows(in)
		if fmt.Sprint(rowsErr) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseRows err=%v, ReadCSV err=%v", rowsErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if err := sameRecords(got, want.Records); err != nil {
			t.Fatalf("streamed records diverge from materialized records: %v", err)
		}
		wantRows := want.Rows()
		if len(rows) != len(wantRows) {
			t.Fatalf("ParseRows gave %d rows, ReadCSV's Rows %d", len(rows), len(wantRows))
		}
		for i := range rows {
			g, w := rows[i], wantRows[i]
			if g.Kernel != w.Kernel || g.Index != w.Index || g.CTASize != w.CTASize ||
				math.Float64bits(g.InstructionCount) != math.Float64bits(w.InstructionCount) {
				t.Fatalf("ParseRows row %d = %+v, ReadCSV's Rows give %+v", i, g, w)
			}
		}
	})
}

// referenceScan parses a profile CSV with encoding/csv alone: the parse
// CSVScanner's fast path must be indistinguishable from. It gives every
// record, or the first error, naming the physical line of the bad field.
func referenceScan(in string) ([]string, []Record, error) {
	cr := csv.NewReader(strings.NewReader(in))
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("profiler: read header: %w", err)
	}
	metrics, colIdx, err := parseHeader(header)
	if err != nil {
		return nil, nil, err
	}
	var recs []Record
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return metrics, recs, nil
		}
		if err != nil {
			return nil, nil, fmt.Errorf("profiler: %w", err)
		}
		bad := func(i int, name string, err error) error {
			line, _ := cr.FieldPos(i)
			return fmt.Errorf("profiler: line %d: bad %s: %w", line, name, err)
		}
		rec := Record{Kernel: row[0]}
		if rec.Index, err = strconv.Atoi(row[1]); err != nil {
			return nil, nil, bad(1, "index", err)
		}
		if rec.Seq, err = strconv.Atoi(row[2]); err != nil {
			return nil, nil, bad(2, "seq", err)
		}
		if rec.CTASize, err = strconv.Atoi(row[3]); err != nil {
			return nil, nil, bad(3, "cta_size", err)
		}
		var vec [cudamodel.NumCharacteristics]float64
		for c, j := range colIdx {
			i := len(fixedColumns) + c
			if vec[j], err = strconv.ParseFloat(row[i], 64); err != nil {
				return nil, nil, bad(i, metrics[c], err)
			}
		}
		rec.Chars = charsFromVector(vec[:])
		recs = append(recs, rec)
	}
}

// scanAll drains a CSVScanner over in.
func scanAll(in string) ([]string, []Record, error) {
	sc, err := NewCSVScanner(strings.NewReader(in))
	if err != nil {
		return nil, nil, err
	}
	var recs []Record
	for sc.Next() {
		recs = append(recs, sc.Record())
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return sc.Collected(), recs, nil
}

// sameRecords compares two record streams field by field, every
// characteristic bit for bit (so NaN equals NaN), and reports the first
// difference.
func sameRecords(got, want []Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Kernel != w.Kernel || g.Index != w.Index || g.Seq != w.Seq || g.CTASize != w.CTASize {
			return fmt.Errorf("record %d: %q/%d/%d/%d, want %q/%d/%d/%d",
				i, g.Kernel, g.Index, g.Seq, g.CTASize, w.Kernel, w.Index, w.Seq, w.CTASize)
		}
		gv, wv := g.Chars.Vector(), w.Chars.Vector()
		for j := range gv {
			if math.Float64bits(gv[j]) != math.Float64bits(wv[j]) {
				return fmt.Errorf("record %d characteristic %d: %v, want %v", i, j, gv[j], wv[j])
			}
		}
	}
	return nil
}

// csvReferenceSeeds covers every way the fast path can differ from
// encoding/csv: quoting, CRLF and lone CRs, blank lines, field counts, bad
// numbers, a missing final newline, a line longer than the line buffer, and
// a quote that first appears after many fast-path lines.
func csvReferenceSeeds() []string {
	const h = "kernel,index,seq,cta_size,instruction_count\n"
	const h3 = "kernel,index,seq,cta_size,instruction_count,thread_blocks,divergence_efficiency\n"
	var many strings.Builder
	many.WriteString(h)
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&many, "k%d,%d,%d,128,%d\n", i%7, i, i/7, 100+i)
	}
	handOff := many.String()
	long := strings.Repeat("k", 5000)
	return []string{
		h + "k,0,0,128,5\nk,1,1,64,9\n",
		h + "\"a,b\",0,0,128,5\n\"a\nb\",1,0,128,6\nk,2,0,128,x\n",
		h + "\"a\nb\",x,0,128,5\n",
		h + "\"k\",0,0,128,5\n\"k\"\"q\",1,0,128,5\nk,2,0,128,5\n",
		h + "k\"q,0,0,128,5\n",
		"kernel,index,seq,cta_size,instruction_count\r\nk,0,0,128,5\r\n\r\nk,1,1,64\r\n",
		h + "k,0,0,128,5\r\nk,1,1,128,5\r\n",
		h + "k\r1,0,0,128,5\nk,1,0,128,5\n",
		h + "k,0,0,128,5\r",
		"\n\n" + h + "\n\nk,0,0,128,5\n\n\nk,x,1,128,5\n",
		h + "k,0,0,128,5\nk,1,1\n",
		h + "k,0,0,128,5,6\n",
		h + "k,0,0,128,5,\n",
		h + ",0,0,128,5\n",
		h + "k,99999999999999999999,0,128,5\n",
		h + "k,0,0,128,1e400\n",
		h + "k,0,0,128,NaN\nk,1,0,128,-0\nk,2,0,128,0x1p-2\n",
		h + "k,0,0,-x,5\n",
		h3 + "k,0,0,128,5,2,0.5\nk,1,1,128,5,2,bad\n",
		h + "k,0,0,128,5",
		h + long + ",0,0,128,5\nk,1,0,128,5\n",
		h + "k,0,0,128,5\n" + long + ",1,0,128\n",
		handOff + "\"q\",400,0,128,5\nk,401,0,128,5\nk,402,0,128\n",
		handOff + "\"q\nr\",400,0,128,5\n\nk,401,0,128,x\n",
		handOff + "k,400,0,128,5\r\nk,401,0,128,5\r\n",
		"",
		"\n\n",
		"\"kernel\",index,seq,cta_size,instruction_count\nk,0,0,128,5\n",
		"kernel,index,seq,cta_size,\"bad\nname\"\n",
		h,
	}
}

// FuzzCSVScannerReference checks CSVScanner, fast path and hand-off alike,
// against referenceScan: the same header, the same records, or the same
// error string.
func FuzzCSVScannerReference(f *testing.F) {
	for _, in := range csvReferenceSeeds() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		wantCols, want, wantErr := referenceScan(in)
		gotCols, got, gotErr := scanAll(in)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("scanner err = %v, reference err = %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotCols, wantCols) {
			t.Fatalf("collected %q, reference %q", gotCols, wantCols)
		}
		if err := sameRecords(got, want); err != nil {
			t.Fatal(err)
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
