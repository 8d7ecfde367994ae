package profiler

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

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
// with millions of invocations. Usage follows bufio.Scanner:
//
//	sc, err := NewCSVScanner(r)
//	for sc.Next() {
//	    rec := sc.Record()
//	    ...
//	}
//	if err := sc.Err(); err != nil { ... }
type CSVScanner struct {
	cr      *csv.Reader
	metrics []string
	colIdx  []int
	rec     Record
	err     error
	line    int
}

// NewCSVScanner reads and validates the header, returning a scanner
// positioned before the first record.
func NewCSVScanner(r io.Reader) (*CSVScanner, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true // rows are parsed into Record immediately
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("profiler: read header: %w", err)
	}
	metrics, colIdx, err := parseHeader(header)
	if err != nil {
		return nil, err
	}
	return &CSVScanner{cr: cr, metrics: metrics, colIdx: colIdx, line: 1}, nil
}

// Collected returns the metric names present in every record.
func (s *CSVScanner) Collected() []string { return s.metrics }

// Next advances to the next record. It returns false at end of input or on
// error; Err distinguishes the two.
func (s *CSVScanner) Next() bool {
	if s.err != nil {
		return false
	}
	s.line++
	row, err := s.cr.Read()
	if err == io.EOF {
		return false
	}
	if err != nil {
		s.err = fmt.Errorf("profiler: line %d: %w", s.line, err)
		return false
	}
	rec := Record{Kernel: row[0]}
	if rec.Index, err = strconv.Atoi(row[1]); err != nil {
		s.err = fmt.Errorf("profiler: line %d: bad index: %w", s.line, err)
		return false
	}
	if rec.Seq, err = strconv.Atoi(row[2]); err != nil {
		s.err = fmt.Errorf("profiler: line %d: bad seq: %w", s.line, err)
		return false
	}
	if rec.CTASize, err = strconv.Atoi(row[3]); err != nil {
		s.err = fmt.Errorf("profiler: line %d: bad cta_size: %w", s.line, err)
		return false
	}
	var vec [cudamodel.NumCharacteristics]float64
	for c, j := range s.colIdx {
		v, err := strconv.ParseFloat(row[len(fixedColumns)+c], 64)
		if err != nil {
			s.err = fmt.Errorf("profiler: line %d: bad %s: %w", s.line, s.metrics[c], err)
			return false
		}
		vec[j] = v
	}
	rec.Chars = charsFromVector(vec[:])
	s.rec = rec
	return true
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
// without building the Record table. The result is sized once from the
// CSV's line count, which bounds the record count from above.
func ParseRows(text string) ([]core.InvocationProfile, error) {
	rows := make([]core.InvocationProfile, 0, strings.Count(text, "\n"))
	_, err := ReadCSVFunc(strings.NewReader(text), func(rec Record) error {
		rows = append(rows, rec.Row())
		return nil
	})
	if err != nil {
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
