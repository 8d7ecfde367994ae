# Development entry points for the Sieve reproduction.

GO ?= go

.PHONY: all build test test-short test-race bench bench-compare bench-stream bench-serve bench-obs bench-load bench-sampler bench-all loadtest vet fmt fuzz-smoke serve experiments record report clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-checks the parallel stratification/k-sweep/KDE paths.
test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Hot-path benchmarks (stratification, PKS k-sweep, KDE grid), sequential vs
# parallel, five one-second runs each, recorded to BENCH_parallel.json (go
# test -json event stream) so future PRs have a perf trajectory to diff
# against.
bench:
	$(GO) test -run XXX -bench 'BenchmarkStratify|BenchmarkPKSSelect|BenchmarkKDEGrid' \
		-benchmem -benchtime 1s -count 5 -json . > BENCH_parallel.json
	@echo "benchmark event stream written to BENCH_parallel.json"

# Re-run the hot-path benchmarks and diff them against the checked-in
# BENCH_parallel.json with the repo's own comparison tool (benchstat-style
# old → new deltas of the per-benchmark medians, no external dependency).
bench-compare:
	$(GO) test -run XXX -bench 'BenchmarkStratify|BenchmarkPKSSelect|BenchmarkKDEGrid' \
		-benchmem -benchtime 1s -count 5 -json . > BENCH_parallel.new.json
	$(GO) run ./cmd/benchcmp BENCH_parallel.json BENCH_parallel.new.json
	@rm -f BENCH_parallel.new.json

# Streaming-vs-materialized ingestion: allocs/op of the streaming sampler
# must stay flat as the invocation count grows (bounded by kernels ×
# reservoir), recorded to BENCH_stream.json.
bench-stream:
	$(GO) test -run XXX -bench 'BenchmarkSampleStream' \
		-benchmem -count 5 -benchtime 1s -json . > BENCH_stream.json
	@echo "benchmark event stream written to BENCH_stream.json"

# Plan-service request latency: a full cache-miss sampling request vs the
# content-hash cache-hit fast path over loopback HTTP, plus the handler in
# process (sampled and unsampled hits, misses on a long-running server) and
# the CSV parse a miss starts with (ParseRows and the streaming CSVScanner on
# the lmc fixture), five one-second runs each, recorded to BENCH_serve.json.
bench-serve:
	$(GO) test -run XXX -bench 'BenchmarkServe|BenchmarkParseRows|BenchmarkCSVScanner' \
		-benchmem -benchtime 1s -count 5 -json ./internal/server ./internal/profiler > BENCH_serve.json
	@echo "benchmark event stream written to BENCH_serve.json"

# Observability overhead: the full sampling pipeline with no collector vs one
# recording every stage span — what a sampled sieved request adds to its
# compute — five one-second runs each, recorded to BENCH_obs.json.
bench-obs:
	$(GO) test -run XXX -bench 'BenchmarkSample$$' \
		-benchmem -benchtime 1s -count 5 -json . > BENCH_obs.json
	@echo "benchmark event stream written to BENCH_obs.json"

# Quick load-harness smoke against a locally started sieved: 5 seconds of
# closed-loop mixed-scenario traffic, report to stdout (CI runs the same
# shape; see docs/load.md).
loadtest:
	$(GO) build -o /tmp/sieved-loadtest ./cmd/sieved
	/tmp/sieved-loadtest -addr 127.0.0.1:8372 -log-level warn & \
	  PID=$$!; trap "kill $$PID" EXIT; sleep 0.5; \
	  $(GO) run ./cmd/sieveload -targets http://127.0.0.1:8372 \
	    -duration 5s -ramp 0:8 -budget 8 -snapshot 0 -out -

# Refresh the checked-in BENCH_load.json: two peered replicas, a zipfian and
# a uniform pass over the same catalog (see scripts/bench_load.sh for the
# tunables).
bench-load:
	./scripts/bench_load.sh

# Per-methodology planning cost: one sub-benchmark per sampling method
# (sieve, pks, twophase, rss — BenchmarkSamplerPlan iterates
# sampler.Names(), so a new method shows up automatically), plus the pks
# k-sweep's k-means alone (BenchmarkKMeansSweep), five one-second runs each,
# recorded to BENCH_sampler.json. See docs/sampling-methods.md.
bench-sampler:
	$(GO) test -run XXX -bench 'BenchmarkSamplerPlan|BenchmarkKMeansSweep' \
		-benchmem -benchtime 1s -count 5 -json ./internal/sampler ./internal/cluster > BENCH_sampler.json
	@echo "benchmark event stream written to BENCH_sampler.json"

# Sample observability report + Chrome trace for the checked-in lmc fixture
# (CI runs the same as a smoke test of the -report/-trace-out surface).
report:
	$(GO) run ./cmd/sieve -profile-in testdata/profile_lmc_scale0.01.csv \
		-report obs_report.json -trace-out obs_trace.json
	@echo "wrote obs_report.json and obs_trace.json"

# Run the sieved plan service on the default port.
serve:
	$(GO) run ./cmd/sieved -addr :8372

# Packages holding fuzz targets: the profiler CSV readers, the sieved request
# decoder, the KDE grid's occupied-bin exactness, streaming vs materialized
# stratification, the trace reader, bounded vs plain Lloyd k-means, and the
# simulator's single-SM identities (Simulate, one-SM SimulateMultiSM and
# never-converging PKP agree).
FUZZ_PKGS = ./internal/profiler ./internal/server ./internal/kde ./internal/core ./internal/trace ./internal/cluster ./internal/sim

# Short fuzz pass over every fuzz target in FUZZ_PKGS (CI runs the same).
fuzz-smoke:
	@for pkg in $(FUZZ_PKGS); do \
		for t in $$($(GO) test $$pkg -list 'Fuzz.*' | grep '^Fuzz'); do \
			echo "fuzzing $$pkg $$t"; \
			$(GO) test $$pkg -run XXX -fuzz "^$$t$$" -fuzztime 10s || exit 1; \
		done; \
	done

# One iteration of every figure/ablation benchmark with its metrics.
bench-all:
	$(GO) test -run XXX -bench . -benchmem -benchtime 1x .

# Regenerate every table and figure at the default scale.
experiments:
	$(GO) run ./cmd/experiments -experiment all

# Refresh the checked-in experiment record.
record:
	$(GO) run ./cmd/experiments -experiment all -scale 0.04 > experiments_scale0.04.txt

clean:
	$(GO) clean ./...
