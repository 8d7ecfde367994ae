// Package cliflags centralizes the flag definitions the sieve command-line
// tools share. cmd/sieve, cmd/experiments, cmd/simulate and cmd/sieved had
// each re-declared -theta, -parallelism and -seed with drifting defaults and
// help text (and under drifting names: -workers, -parallel); registering them
// here gives every tool the same canonical name, default and wording, while
// legacy names stay usable as aliases bound to the same value.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"strings"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/obs"
	"github.com/gpusampling/sieve/internal/sampler"
)

// Canonical help text, shared verbatim by every tool.
const (
	thetaHelp       = "Sieve CoV threshold θ separating Tier-2 from Tier-3 (paper default 0.4)"
	parallelismHelp = "worker count for the parallel sampling pipelines (1 = sequential; results are byte-identical at any value)"
	seedHelp        = "deterministic RNG seed for the seeded methods (pks, twophase, rss) and stream-mode reservoirs (0 = default)"
	archHelp        = "hardware model: ampere, turing, or a JSON arch file"
	streamHelp      = "use the bounded-memory streaming sampler (single pass, per-kernel reservoirs)"
	reservoirHelp   = "rows retained per kernel in -stream mode (0 = default)"
	logLevelHelp    = "structured-log level: debug, info, warn or error"
	peersHelp       = "comma-separated base URLs of the sieved replica set for consistent-hash shard routing (empty = single node)"
	selfHelp        = "this replica's own advertised base URL, as the other replicas reach it (required with -peers)"
	targetsHelp     = "comma-separated sieved base URLs to drive (one per replica; requests spread across them)"
	reportHelp      = "write an observability report (per-stage spans, counters, histograms) as JSON to this file ('-' = stdout)"
	traceOutHelp    = "write the recorded stage spans as Chrome trace_viewer trace-event JSON to this file (open via chrome://tracing or ui.perfetto.dev)"
)

// Theta registers the canonical -theta flag: the paper's default θ = 0.4.
func Theta(fs *flag.FlagSet) *float64 {
	return fs.Float64("theta", core.DefaultTheta, thetaHelp)
}

// Seed registers the canonical -seed flag.
func Seed(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 0, seedHelp)
}

// Parallelism registers the canonical -parallelism flag, defaulting to
// GOMAXPROCS, plus any legacy alias names bound to the same value (e.g.
// "workers" in cmd/experiments, "parallel" in cmd/simulate).
func Parallelism(fs *flag.FlagSet, aliases ...string) *int {
	def := runtime.GOMAXPROCS(0)
	p := fs.Int("parallelism", def, parallelismHelp)
	for _, a := range aliases {
		fs.IntVar(p, a, def, "alias for -parallelism")
	}
	return p
}

// Scale registers the shared -scale flag with a tool-specific default
// (cmd/experiments uses 0 to mean "per-experiment default").
func Scale(fs *flag.FlagSet, def float64) *float64 {
	help := "workload scale factor in (0, 1]"
	if def == 0 {
		help += "; 0 = per-experiment default"
	}
	return fs.Float64("scale", def, help)
}

// Arch registers the shared -arch flag.
func Arch(fs *flag.FlagSet) *string {
	return fs.String("arch", "ampere", archHelp)
}

// Method registers the shared -method flag selecting the sampling
// methodology. The help text enumerates sampler.Names(), the fixed table of
// the four methods, so it never drifts from it.
func Method(fs *flag.FlagSet) *string {
	return fs.String("method", core.MethodSieve,
		"sampling methodology: "+strings.Join(sampler.Names(), ", "))
}

// Stream registers the shared -stream / -reservoir streaming-mode pair.
func Stream(fs *flag.FlagSet) (stream *bool, reservoir *int) {
	return fs.Bool("stream", false, streamHelp), fs.Int("reservoir", 0, reservoirHelp)
}

// Peers registers the shared -peers / -self replica-set pair for the sieved
// shard ring.
func Peers(fs *flag.FlagSet) (peers, self *string) {
	return fs.String("peers", "", peersHelp), fs.String("self", "", selfHelp)
}

// Targets registers the shared -targets flag naming the sieved replicas a
// client-side tool drives (cmd/sieveload).
func Targets(fs *flag.FlagSet, def string) *string {
	return fs.String("targets", def, targetsHelp)
}

// SplitList parses a comma-separated flag value into trimmed, non-empty
// entries.
func SplitList(csv string) []string {
	var out []string
	for _, part := range strings.Split(csv, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// LogLevel registers the shared -log-level flag.
func LogLevel(fs *flag.FlagSet) *string {
	return fs.String("log-level", "info", logLevelHelp)
}

// Report registers the shared -report / -trace-out observability output pair.
func Report(fs *flag.FlagSet) (report, traceOut *string) {
	return fs.String("report", "", reportHelp), fs.String("trace-out", "", traceOutHelp)
}

// WriteObsOutputs exports a collector's recorded spans to the -report and
// -trace-out destinations registered by Report: the structured JSON report to
// reportPath and Chrome trace_viewer trace-event JSON to tracePath. "-" means
// stdout, an empty path skips that output, and a nil collector is a no-op.
func WriteObsOutputs(col *obs.Collector, reportPath, tracePath string) error {
	if col == nil {
		return nil
	}
	rep := col.Report()
	if reportPath != "" {
		if err := writeTo(reportPath, rep.WriteJSON); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
	}
	if tracePath != "" {
		if err := writeTo(tracePath, rep.WriteTrace); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

// writeTo streams write into path, with "-" meaning stdout.
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// NewLogger builds the shared structured logger every tool uses: slog text
// lines on stderr at the named level (the -log-level value). An unknown level
// is an error so typos fail loudly instead of silently logging at info.
func NewLogger(level string) (*slog.Logger, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid log level %q (use debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: l})), nil
}

// MustLogger is NewLogger for main() preambles: an invalid level prints the
// error and exits, since no logger exists yet to report it.
func MustLogger(tool, level string) *slog.Logger {
	logger, err := NewLogger(level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(2)
	}
	return logger.With("tool", tool)
}
