// Command sieved serves the Sieve sampling pipeline as a long-lived HTTP
// JSON service: POST a profile CSV (or a catalog workload name) and get a
// content-hash-addressed sampling plan back, cached so identical requests
// are computed once. See docs/service.md for the API.
//
// Usage:
//
//	sieved -addr :8372
//	curl -fsS -X POST -H 'Content-Type: text/csv' --data-binary @profile.csv \
//	    'http://localhost:8372/v1/sample?theta=0.4'
//	curl -fsS -X POST -d '{"workload":"lmc","scale":0.05}' \
//	    http://localhost:8372/v1/sample
//
// The server bounds concurrent sampling runs with a worker-slot semaphore,
// caps request bodies and per-request compute time, and drains in-flight
// runs on SIGINT/SIGTERM before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/gpusampling/sieve/internal/cliflags"
	"github.com/gpusampling/sieve/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", ":8372", "listen address")
		maxConcurrent = flag.Int("max-concurrent", 0, "worker slots: concurrent sampling runs (0 = GOMAXPROCS)")
		timeout       = flag.Duration("timeout", 60*time.Second, "per-request compute timeout")
		maxBodyMB     = flag.Int("max-body-mb", 32, "request body size limit in MiB (CSV profiles included), also the workload-profile cache budget")
		cacheEntries  = flag.Int("cache", 128, "plan cache capacity (content-hash-addressed LRU entries)")
		drain         = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window for in-flight runs")
		withPprof     = flag.Bool("pprof", false, "expose the net/http/pprof profiling handlers under /debug/pprof/")
		batchItems    = flag.Int("max-batch-items", 0, "item limit per POST /v1/batch request (0 = default 64)")
		traceStore    = flag.Int("trace-store", 0, "capacity of each trace-store ring behind GET /debug/traces, request summaries and sampled span trees (0 = default 256)")
		parallelism   = cliflags.Parallelism(flag.CommandLine)
		logLevel      = cliflags.LogLevel(flag.CommandLine)
	)
	peers, self := cliflags.Peers(flag.CommandLine)
	flag.Parse()
	logger := cliflags.MustLogger("sieved", *logLevel)
	if err := run(*addr, server.Config{
		MaxConcurrent:  *maxConcurrent,
		RequestTimeout: *timeout,
		MaxBodyBytes:   int64(*maxBodyMB) << 20,
		CacheEntries:   *cacheEntries,
		MaxBatchItems:  *batchItems,
		TraceEntries:   *traceStore,
		Parallelism:    *parallelism,
		Logger:         logger,
	}, *self, *peers, *drain, *withPprof, logger); err != nil {
		logger.Error("exiting", "error", err)
		os.Exit(1)
	}
}

func run(addr string, cfg server.Config, self, peers string, drain time.Duration, withPprof bool, logger *slog.Logger) error {
	s := server.New(cfg)
	if peerList := server.SplitPeers(peers); len(peerList) > 0 {
		if err := s.SetPeers(self, peerList); err != nil {
			return fmt.Errorf("configure shard ring: %w", err)
		}
		logger.Info("shard ring configured", "self", self, "peers", peerList)
	}
	s.Metrics().Publish("sieved")
	handler := s.Handler()
	if withPprof {
		// The profiling handlers mount on an outer mux so they bypass the
		// access-logged application handler (scrapes every few seconds would
		// drown the log) and stay absent entirely unless requested.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", addr, "pprof", withPprof)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, then let in-flight sampling runs
	// drain within the window; their request contexts are cancelled when the
	// window expires, which frees the compute workers promptly.
	logger.Info("draining in-flight runs", "window", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		_ = httpSrv.Close()
		return fmt.Errorf("drain window expired: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
