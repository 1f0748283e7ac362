// Command faultcastd is the faultcast estimation service: a long-running
// HTTP daemon that answers success-probability queries over compiled
// plans, amortizing compilation and simulation across callers with a
// plan cache, a tally store of trial prefixes, request coalescing, and
// bounded admission (429 + Retry-After under overload).
//
// Endpoints: POST /v1/estimate, POST /v1/sweep, POST /v1/shard,
// GET /v1/scenarios, GET /v1/stats, GET /v1/trace, GET /v1/trace/{id},
// GET /metrics, GET /healthz. /v1/stats exposes the full serving ledger —
// cache/coalescing/admission counters plus per-endpoint latency
// histograms — with semantics documented on internal/service.Stats;
// /metrics re-expresses the same counters in Prometheus text format under
// the stable names in DESIGN.md's metric ledger. Every response carries a
// trace_id; GET /v1/trace/{id} (or faultcastctl trace ID) returns that
// request's span tree — admission wait, plan lookup/compile, execution
// batches, store replay, and per-shard worker timings in coordinator
// mode. With -debug-addr a second loopback listener serves
// net/http/pprof. See cmd/faultcastctl for a client, including the
// open-loop load bench (faultcastctl bench) that exercises a daemon and
// gates its latency/reject SLOs in CI.
//
// Every faultcastd is also a cluster worker: POST /v1/shard executes one
// shard of a remote coordinator's trial stream against the local plan
// cache. With -workers, the daemon additionally becomes a coordinator:
// estimates and sweeps are split into fixed-size shards and fanned out
// across the listed workers, with per-worker health tracking, retry, and
// transparent failover to local execution — and results bit-identical to
// a single-node run. On SIGTERM the daemon drains gracefully: new shard
// work is refused with 503 while in-flight work finishes, then the
// listener closes.
//
// Every estimate and sweep cell resumes from a tally store's trial
// prefix and appends its marginal batches back, so refinements only ever
// simulate what is not stored, and a repeat whose stored prefix already
// decides it answers with zero trials and no admission slot — always
// bit-identically to a cold run, so an answer depends only on its
// request. Without -store that store is bounded and in memory
// (-result-cache default-budget streams' worth of buckets). With
// -store=DIR it is durable, so a restarted daemon answers
// previously-served requests with zero trials, bit-identical (warm
// restart).
// The latency histograms in /v1/stats are snapshotted to DIR/stats.json
// on drain and restored at startup. Inspect the store offline with
// faultcastctl store ls|verify|gc -dir DIR.
//
// Example (one coordinator, two workers):
//
//	faultcastd -addr 127.0.0.1:8351 &
//	faultcastd -addr 127.0.0.1:8352 &
//	faultcastd -addr 127.0.0.1:8347 -workers http://127.0.0.1:8351,http://127.0.0.1:8352 &
//	faultcastctl -addr http://127.0.0.1:8347 estimate -graph grid:8x8 -p 0.5 -trials 5000
//	faultcastctl -addr http://127.0.0.1:8347 workers
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"faultcast/internal/cluster"
	"faultcast/internal/service"
	"faultcast/internal/store"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8347", "listen address")
		maxInflight   = flag.Int("max-inflight", 0, "concurrently executing estimations (0 = GOMAXPROCS)")
		maxQueue      = flag.Int("max-queue", 0, "requests waiting for a slot before 429 (0 = 64, negative = no queue)")
		workers       = flag.Int("workers-per-run", 0, "worker goroutines per estimation (0 = GOMAXPROCS)")
		planCache     = flag.Int("plan-cache", 0, "compiled plans kept in the LRU (0 = 256)")
		resultCache   = flag.Int("result-cache", 0, "default-budget trial streams the in-memory tally store holds without -store, counted in buckets: this × ceil(default-trials/32) (0 = 4096)")
		maxNodes      = flag.Int("max-nodes", 0, "largest served graph (0 = 4096 vertices)")
		maxTrials     = flag.Int("max-trials", 0, "per-request trial cap (0 = 200000)")
		defaultTrials = flag.Int("default-trials", 0, "trial budget when a request names none (0 = 1000)")
		workerURLs    = flag.String("workers", "", "comma-separated worker base URLs; enables coordinator mode")
		shardTrials   = flag.Int("shard-trials", 0, "trials per dispatched shard in coordinator mode (0 = 512)")
		storeDir      = flag.String("store", "", "durable tally store directory; enables warm restart (empty = bounded in-memory tally store)")
		traceRing     = flag.Int("trace-ring", 0, "finished request traces retained for /v1/trace (0 = 256, negative disables tracing)")
		traceSlowest  = flag.Int("trace-slowest", 0, "slowest traces retained beyond ring eviction (0 = 16)")
		debugAddr     = flag.String("debug-addr", "", "optional second listener for net/http/pprof profiling (e.g. 127.0.0.1:8348); empty disables")
	)
	flag.Parse()

	opts := service.Options{
		MaxNodes:        *maxNodes,
		MaxTrials:       *maxTrials,
		DefaultTrials:   *defaultTrials,
		PlanCacheSize:   *planCache,
		ResultCacheSize: *resultCache,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		Workers:         *workers,
		TraceRing:       *traceRing,
		TraceSlowest:    *traceSlowest,
	}
	if *workerURLs != "" {
		urls := strings.Split(*workerURLs, ",")
		for _, u := range urls {
			// -workers used to be the goroutines-per-estimation count
			// (now -workers-per-run); fail loudly on anything that isn't a
			// worker base URL rather than dispatch shards into the void.
			if u = strings.TrimSpace(u); !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				log.Fatalf("faultcastd: -workers takes worker base URLs (got %q); for per-estimation goroutines use -workers-per-run", u)
			}
		}
		opts.Cluster = cluster.New(urls, cluster.Options{
			ShardTrials: *shardTrials,
			// Failover shards respect the same per-run goroutine bound as
			// everything else on this process.
			LocalWorkers: *workers,
		})
		log.Printf("faultcastd: coordinator mode over %d workers: %s", len(urls), *workerURLs)
	}
	var statsPath string
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatalf("faultcastd: %v", err)
		}
		opts.Store = st
		statsPath = filepath.Join(*storeDir, "stats.json")
		log.Printf("faultcastd: durable tally store at %s", *storeDir)
	}
	srv := service.New(opts)
	if statsPath != "" {
		// Warm restart: carry the latency ledger across the restart so a
		// bench window spanning it keeps its "before" deltas.
		if err := srv.LoadStatsSnapshot(statsPath); err != nil {
			log.Printf("faultcastd: stats snapshot not restored: %v", err)
		}
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	if *debugAddr != "" {
		// Profiling listens on its OWN address, never the serving one:
		// pprof endpoints expose process internals and must be bindable to
		// loopback while the API faces the network. The DefaultServeMux
		// carries net/http/pprof's registrations (the blank import above).
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("faultcastd: pprof debug listener on http://%s/debug/pprof/", *debugAddr)
			if err := dbg.ListenAndServe(); err != http.ErrServerClosed {
				log.Printf("faultcastd: debug listener: %v", err)
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// Drain before Shutdown: new shard work is refused with 503 (so
		// coordinators re-route immediately instead of losing shards to a
		// closed listener), then Shutdown waits for everything in flight —
		// shards included — before closing the listener.
		srv.BeginDrain()
		log.Print("faultcastd: draining, then shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("faultcastd: shutdown: %v", err)
		}
		if statsPath != "" {
			// After Shutdown: every in-flight request has finished, so
			// the saved histograms include everything this process served.
			if err := srv.SaveStatsSnapshot(statsPath); err != nil {
				log.Printf("faultcastd: stats snapshot not saved: %v", err)
			}
		}
	}()

	log.Printf("faultcastd: listening on %s", *addr)
	if err := hs.ListenAndServe(); err != http.ErrServerClosed {
		log.Fatalf("faultcastd: %v", err)
	}
	<-done
}
