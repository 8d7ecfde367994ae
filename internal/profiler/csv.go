package profiler

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unsafe"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/cudamodel"
)

// fixedColumns are the non-metric CSV columns, in order.
var fixedColumns = []string{"kernel", "index", "seq", "cta_size"}

// WriteCSV serializes the profile as CSV: a header of fixed columns followed
// by the collected metric names, then one row per record. This matches the
// paper's workflow where "the data is converted into a readable CSV file
// which serves as input to PKS and Sieve".
func (p *Profile) WriteCSV(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := append(append([]string{}, fixedColumns...), p.Collected...)
	// Validates metric names and rejects duplicate columns, which would
	// round-trip into a last-one-wins parse.
	_, colIdx, err := parseHeader(header)
	if err != nil {
		return err
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("profiler: write header: %w", err)
	}
	row := make([]string, len(header))
	for _, r := range p.Records {
		row[0] = r.Kernel
		row[1] = strconv.Itoa(r.Index)
		row[2] = strconv.Itoa(r.Seq)
		row[3] = strconv.Itoa(r.CTASize)
		vec := r.Chars.Vector()
		for c, j := range colIdx {
			row[len(fixedColumns)+c] = strconv.FormatFloat(vec[j], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("profiler: write record %d: %w", r.Index, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// parseHeader validates the fixed columns and maps each metric column to its
// characteristic slot. Duplicate metric columns are rejected: both would
// write the same Characteristics field with last-one-wins semantics,
// silently dropping data.
func parseHeader(header []string) (metrics []string, colIdx []int, err error) {
	if len(header) < len(fixedColumns)+1 {
		return nil, nil, fmt.Errorf("profiler: header has %d columns, want at least %d", len(header), len(fixedColumns)+1)
	}
	for i, want := range fixedColumns {
		if header[i] != want {
			return nil, nil, fmt.Errorf("profiler: column %d is %q, want %q", i, header[i], want)
		}
	}
	metrics = append([]string(nil), header[len(fixedColumns):]...)
	names := cudamodel.CharacteristicNames()
	colIdx = make([]int, 0, len(metrics))
	seen := make(map[string]bool, len(metrics))
	for _, m := range metrics {
		if seen[m] {
			return nil, nil, fmt.Errorf("profiler: duplicate metric column %q", m)
		}
		seen[m] = true
		found := -1
		for j, n := range names {
			if n == m {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, nil, fmt.Errorf("profiler: unknown metric column %q", m)
		}
		colIdx = append(colIdx, found)
	}
	return metrics, colIdx, nil
}

// CSVScanner streams a profile CSV record by record without materializing
// the table — the ingestion front-end for bounded-memory sampling of runs
// with millions of invocations, and the one parser behind ReadCSV, ParseRows
// and sieve.CSVSource. Usage follows bufio.Scanner:
//
//	sc, err := NewCSVScanner(r)
//	for sc.Next() {
//	    rec := sc.Record()
//	    ...
//	}
//	if err := sc.Err(); err != nil { ... }
//
// Unquoted input takes a byte-level fast path: lines come from a
// bufio.Reader, split on ',', and strconv parses views of the line buffer
// (strconv copies its input into any error it returns). Blank lines are
// skipped as encoding/csv skips them. The first line holding a '"' or a
// '\r', or too long for the buffer, is handed to encoding/csv together with
// the rest of the input, so quoted and CRLF input parses, and fails, exactly
// as encoding/csv alone would. Kernel names are interned per scanner:
// records share one string per kernel and never alias the input. Errors name
// the physical line they occur on.
type CSVScanner struct {
	br      *bufio.Reader
	cr      *csv.Reader // the rest of the input, once handed off
	crLine  int         // physical lines read before cr's first line
	line    int         // physical lines read by the fast path
	fields  []string    // the fast path's current fields, views of br's buffer
	nfields int         // fields per record, from the header
	kernels map[string]string
	metrics []string
	colIdx  []int
	rec     Record
	err     error
}

// NewCSVScanner reads and validates the header, returning a scanner
// positioned before the first record.
func NewCSVScanner(r io.Reader) (*CSVScanner, error) {
	s := &CSVScanner{br: bufio.NewReader(r), kernels: make(map[string]string)}
	header, err := s.read()
	if err != nil {
		return nil, fmt.Errorf("profiler: read header: %w", err)
	}
	// Fast-path fields are views of the line buffer; the metric names
	// outlive it.
	for i, f := range header {
		header[i] = strings.Clone(f)
	}
	if s.metrics, s.colIdx, err = parseHeader(header); err != nil {
		return nil, err
	}
	s.nfields = len(header)
	return s, nil
}

// Collected returns the metric names present in every record.
func (s *CSVScanner) Collected() []string { return s.metrics }

// Next advances to the next record. It returns false at end of input or on
// error; Err distinguishes the two.
func (s *CSVScanner) Next() bool {
	if s.err != nil {
		return false
	}
	row, err := s.read()
	if err == io.EOF {
		return false
	}
	if err != nil {
		s.err = fmt.Errorf("profiler: %w", err)
		return false
	}
	s.err = s.parse(row)
	return s.err == nil
}

// read returns the next record's fields, skipping blank lines. Fast-path
// fields are views of the line buffer, valid until the next read.
func (s *CSVScanner) read() ([]string, error) {
	if s.cr != nil {
		row, err := s.cr.Read()
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.StartLine += s.crLine
			pe.Line += s.crLine
		}
		return row, err
	}
	for {
		line, err := s.br.ReadSlice('\n')
		switch {
		case err == io.EOF && len(line) == 0:
			return nil, io.EOF
		case err != nil && err != io.EOF && err != bufio.ErrBufferFull:
			return nil, err
		case err == bufio.ErrBufferFull || !s.split(line):
			s.handOff(line)
			return s.read()
		}
		s.line++
		if string(line) == "\n" {
			continue
		}
		if s.nfields > 0 && len(s.fields) != s.nfields {
			return nil, &csv.ParseError{StartLine: s.line, Line: s.line, Column: 1, Err: csv.ErrFieldCount}
		}
		return s.fields, nil
	}
}

// split cuts line, less its '\n', at each ',' into s.fields. It reports
// false, leaving the line to encoding/csv, if the line holds a '"' or a '\r'.
func (s *CSVScanner) split(line []byte) bool {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	s.fields = s.fields[:0]
	start := 0
	for i, c := range line {
		if c > ',' { // '\r', '"' and ',' all sort at or below ','
			continue
		}
		switch c {
		case ',':
			s.fields = append(s.fields, view(line[start:i]))
			start = i + 1
		case '"', '\r':
			return false
		}
	}
	s.fields = append(s.fields, view(line[start:]))
	return true
}

// view returns b's bytes as a string without copying them; the string is
// valid only while b is.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// handOff gives line, which br has already returned, and the rest of the
// input to encoding/csv, which reads every record from then on.
func (s *CSVScanner) handOff(line []byte) {
	s.cr = csv.NewReader(io.MultiReader(bytes.NewReader(bytes.Clone(line)), s.br))
	s.cr.ReuseRecord = true // rows are parsed into Record immediately
	s.cr.FieldsPerRecord = s.nfields
	s.crLine = s.line
}

// parse converts one record's fields into s.rec.
func (s *CSVScanner) parse(row []string) error {
	rec := Record{Kernel: s.intern(row[0])}
	var err error
	if rec.Index, err = strconv.Atoi(row[1]); err != nil {
		return s.fieldErr(1, "index", err)
	}
	if rec.Seq, err = strconv.Atoi(row[2]); err != nil {
		return s.fieldErr(2, "seq", err)
	}
	if rec.CTASize, err = strconv.Atoi(row[3]); err != nil {
		return s.fieldErr(3, "cta_size", err)
	}
	var vec [cudamodel.NumCharacteristics]float64
	for c, j := range s.colIdx {
		i := len(fixedColumns) + c
		if vec[j], err = strconv.ParseFloat(row[i], 64); err != nil {
			return s.fieldErr(i, s.metrics[c], err)
		}
	}
	rec.Chars = charsFromVector(vec[:])
	s.rec = rec
	return nil
}

// intern returns the scanner's own copy of kernel name k, which may be a
// view of the line buffer.
func (s *CSVScanner) intern(k string) string {
	if c, ok := s.kernels[k]; ok {
		return c
	}
	c := strings.Clone(k)
	s.kernels[c] = c
	return c
}

// fieldErr reports a bad field i of the current record on the physical line
// that holds it.
func (s *CSVScanner) fieldErr(i int, name string, err error) error {
	line := s.line
	if s.cr != nil {
		l, _ := s.cr.FieldPos(i)
		line = s.crLine + l
	}
	return fmt.Errorf("profiler: line %d: bad %s: %w", line, name, err)
}

// Record returns the record produced by the last successful Next.
func (s *CSVScanner) Record() Record { return s.rec }

// Err returns the first error encountered while scanning, if any.
func (s *CSVScanner) Err() error { return s.err }

// ReadCSVFunc streams a profile CSV, invoking fn once per record, and
// returns the collected metric names. It is the push-style counterpart of
// CSVScanner; an error from fn aborts the scan.
func ReadCSVFunc(r io.Reader, fn func(Record) error) ([]string, error) {
	sc, err := NewCSVScanner(r)
	if err != nil {
		return nil, err
	}
	for sc.Next() {
		if err := fn(sc.Record()); err != nil {
			return sc.Collected(), err
		}
	}
	return sc.Collected(), sc.Err()
}

// errNoRecords wraps the sentinel so callers (and the sieved status mapping)
// can distinguish "well-formed but empty" from malformed CSV.
var errNoRecords = fmt.Errorf("profiler: CSV contains no records: %w", core.ErrEmptyProfile)

// ReadCSV parses a profile previously written by WriteCSV, materializing the
// whole table (use CSVScanner or ReadCSVFunc to stream instead). Workload,
// Suite, Tool and WallSeconds are not stored in the CSV and are left for the
// caller to fill in.
func ReadCSV(r io.Reader) (*Profile, error) {
	p := &Profile{}
	collected, err := ReadCSVFunc(r, func(rec Record) error {
		p.Records = append(p.Records, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.Collected = collected
	if len(p.Records) == 0 {
		return nil, errNoRecords
	}
	return p, nil
}

// ParseRows parses a profile CSV straight into the stratifier's input rows:
// the rows ReadCSV followed by Rows would give, with the same errors, but
// without building the Record table. It goes through CSVScanner, so the rows
// share one interned string per kernel and none aliases text: a caller may
// pass a view of a buffer it reuses afterwards. The result is sized once
// from the CSV's line count, which bounds the record count from above.
func ParseRows(text string) ([]core.InvocationProfile, error) {
	sc, err := NewCSVScanner(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	rows := make([]core.InvocationProfile, 0, strings.Count(text, "\n"))
	for sc.Next() {
		rows = append(rows, sc.rec.Row())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, errNoRecords
	}
	return rows, nil
}

// charsFromVector rebuilds a Characteristics struct from a Vector()-ordered
// slice.
func charsFromVector(v []float64) cudamodel.Characteristics {
	return cudamodel.Characteristics{
		CoalescedGlobalLoads:  v[0],
		CoalescedGlobalStores: v[1],
		CoalescedLocalLoads:   v[2],
		ThreadGlobalLoads:     v[3],
		ThreadGlobalStores:    v[4],
		ThreadLocalLoads:      v[5],
		ThreadSharedLoads:     v[6],
		ThreadSharedStores:    v[7],
		ThreadGlobalAtomics:   v[8],
		InstructionCount:      v[9],
		DivergenceEfficiency:  v[10],
		ThreadBlocks:          v[11],
	}
}
