package service

import (
	"net/http"
	"runtime"

	"faultcast/internal/hist"
	"faultcast/internal/telemetry"
)

// buildMetrics assembles the GET /metrics registry. It re-expresses the
// exact counters /v1/stats reads — same atomics, no second bookkeeping —
// in Prometheus text format under the stable names documented in
// DESIGN.md's metric ledger (pinned byte-for-byte by metrics_names.txt
// and the CI metrics-smoke job).
//
// Every family is ALWAYS registered: store- and cluster-backed ones emit
// no samples when the subsystem is off, but their HELP/TYPE headers still
// appear, so the name ledger is identical whatever flags the daemon runs
// with.
func (s *Server) buildMetrics() *telemetry.Registry {
	r := telemetry.NewRegistry()
	counter := func(name, help string, v func() float64) {
		r.Counter(name, help, func(emit func([]telemetry.Label, float64)) { emit(nil, v()) })
	}
	gauge := func(name, help string, v func() float64) {
		r.Gauge(name, help, func(emit func([]telemetry.Label, float64)) { emit(nil, v()) })
	}
	endpoint := func(v string) []telemetry.Label { return []telemetry.Label{{Name: "endpoint", Value: v}} }

	r.Gauge("faultcast_build_info",
		"Build metadata as labels; the value is always 1.",
		func(emit func([]telemetry.Label, float64)) {
			emit([]telemetry.Label{{Name: "go_version", Value: runtime.Version()}}, 1)
		})
	gauge("faultcast_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return s.opts.Now().Sub(s.start).Seconds() })
	counter("faultcast_http_requests_total",
		"HTTP requests received, any endpoint or method.",
		func() float64 { return float64(s.c.requests.Load()) })
	r.Counter("faultcast_api_requests_total",
		"Requests to the three execution endpoints.",
		func(emit func([]telemetry.Label, float64)) {
			emit(endpoint("estimate"), float64(s.c.estimateCalls.Load()))
			emit(endpoint("shard"), float64(s.c.shardCalls.Load()))
			emit(endpoint("sweep"), float64(s.c.sweepCalls.Load()))
		})
	counter("faultcast_bad_requests_total",
		"Requests rejected by validation or compile (4xx).",
		func() float64 { return float64(s.c.badRequests.Load()) })
	counter("faultcast_admission_rejected_total",
		"Requests answered 429: inflight and queue both full.",
		func() float64 { return float64(s.c.rejected.Load()) })
	counter("faultcast_admission_canceled_total",
		"Requests whose client hung up while queued for a slot (499).",
		func() float64 { return float64(s.c.canceled.Load()) })
	gauge("faultcast_admission_inflight",
		"Executions currently holding an admission slot.",
		func() float64 { return float64(len(s.slots)) })
	gauge("faultcast_admission_waiting",
		"Callers currently queued for an admission slot.",
		func() float64 { return float64(s.waiting.Load()) })
	counter("faultcast_cache_hits_total",
		"Estimates answered from the tally store's replay with zero simulation.",
		func() float64 { return float64(s.c.cacheHits.Load()) })
	r.Counter("faultcast_coalesced_total",
		"Requests that rode an identical in-flight execution, by whether the leader succeeded.",
		func(emit func([]telemetry.Label, float64)) {
			emit([]telemetry.Label{{Name: "outcome", Value: "error"}}, float64(s.c.coalescedErrors.Load()))
			emit([]telemetry.Label{{Name: "outcome", Value: "shared"}}, float64(s.c.coalesced.Load()))
		})
	counter("faultcast_executions_total",
		"Estimates that simulated trials on the engine (fresh or refining); zero-trial store replays are not counted.",
		func() float64 { return float64(s.c.executions.Load()) })
	r.Counter("faultcast_executions_by_core_total",
		"Estimates, sweep cells and shards that simulated trials on the engine, by estimation engine.",
		func(emit func([]telemetry.Label, float64)) {
			emit([]telemetry.Label{{Name: "core", Value: "bitset"}}, float64(s.c.coreBitset.Load()))
			emit([]telemetry.Label{{Name: "core", Value: "lanes"}}, float64(s.c.coreLanes.Load()))
		})
	counter("faultcast_refines_total",
		"Answers that resumed a stored trial prefix and simulated only the marginal batches.",
		func() float64 { return float64(s.c.refines.Load()) })
	counter("faultcast_trials_simulated_total",
		"Monte-Carlo trials actually executed by this process.",
		func() float64 { return float64(s.c.trialsSimulated.Load()) })
	counter("faultcast_plan_compiles_total",
		"Scenario compilations (sweeps count once per distinct cell plan).",
		func() float64 { return float64(s.c.planCompiles.Load()) })
	counter("faultcast_plan_cache_hits_total",
		"Plan lookups served from the compiled-plan LRU.",
		func() float64 { return float64(s.c.planCacheHits.Load()) })
	gauge("faultcast_plan_cache_entries",
		"Compiled plans currently in the LRU.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.plans.len()) })
	counter("faultcast_sweep_cells_total",
		"Sweep cells decided.",
		func() float64 { return float64(s.c.sweepCells.Load()) })
	counter("faultcast_sweep_cell_cache_hits_total",
		"Sweep cells answered with zero simulation.",
		func() float64 { return float64(s.c.sweepCellCacheHits.Load()) })
	counter("faultcast_shards_executed_total",
		"Coordinator shards executed by this worker's /v1/shard.",
		func() float64 { return float64(s.c.shardsExecuted.Load()) })
	counter("faultcast_shard_trials_total",
		"Trials executed on behalf of coordinators.",
		func() float64 { return float64(s.c.shardTrials.Load()) })
	counter("faultcast_shards_drained_total",
		"Shards refused with 503 because this worker was draining.",
		func() float64 { return float64(s.c.shardsDrained.Load()) })
	gauge("faultcast_shard_inflight",
		"Shard executions currently running.",
		func() float64 { return float64(s.shardInflight.Load()) })
	gauge("faultcast_draining",
		"1 once BeginDrain has been called (the process is shutting down).",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})

	// Tally-store replays count in both modes; the durable-store families
	// below are sample-less without -store.
	counter("faultcast_store_hits_total",
		"Requests and sweep cells fully answered by the tally store's replay (durable or in-memory).",
		func() float64 { return float64(s.c.storeHits.Load()) })
	storeCounter := func(name, help string, v func(st *storeStatsView) float64) {
		r.Counter(name, help, func(emit func([]telemetry.Label, float64)) {
			if s.opts.Store == nil {
				return
			}
			st := s.opts.Store.Stats()
			emit(nil, v(&storeStatsView{
				loads:        st.Loads,
				trialsLoaded: st.TrialsLoaded,
				appends:      st.Appends,
				appendErrors: st.AppendErrors,
				corrupt:      st.CorruptRecordsSkipped,
			}))
		})
	}
	storeCounter("faultcast_store_loads_total",
		"Tally-store load calls (replays of a persisted prefix).",
		func(st *storeStatsView) float64 { return float64(st.loads) })
	storeCounter("faultcast_store_trials_loaded_total",
		"Stored trials returned by loads — simulation work warm answers avoided.",
		func(st *storeStatsView) float64 { return float64(st.trialsLoaded) })
	storeCounter("faultcast_store_appends_total",
		"Tally records persisted.",
		func(st *storeStatsView) float64 { return float64(st.appends) })
	storeCounter("faultcast_store_append_errors_total",
		"Rejected or failed persists (the answer was still served).",
		func(st *storeStatsView) float64 { return float64(st.appendErrors) })
	storeCounter("faultcast_store_corrupt_records_total",
		"Corrupt store frames skipped during replay (never fatal).",
		func(st *storeStatsView) float64 { return float64(st.corrupt) })

	// Cluster-coordinator families: sample-less without -workers.
	r.Counter("faultcast_cluster_cells_total",
		"Estimation cells routed by the coordinator, by whether they were sharded across the fleet or ran wholly in process.",
		func(emit func([]telemetry.Label, float64)) {
			if s.opts.Cluster == nil {
				return
			}
			st := s.opts.Cluster.Status()
			emit([]telemetry.Label{{Name: "mode", Value: "local"}}, float64(st.LocalCells))
			emit([]telemetry.Label{{Name: "mode", Value: "remote"}}, float64(st.CellsDistributed))
		})
	clusterCounter := func(name, help string, v func(st *clusterStatsView) float64) {
		r.Counter(name, help, func(emit func([]telemetry.Label, float64)) {
			if s.opts.Cluster == nil {
				return
			}
			st := s.opts.Cluster.Status()
			emit(nil, v(&clusterStatsView{
				dispatched: st.ShardsDispatched,
				discarded:  st.ShardsDiscarded,
				retries:    st.ShardRetries,
				failovers:  st.LocalFailovers,
			}))
		})
	}
	clusterCounter("faultcast_cluster_shards_dispatched_total",
		"Remote shard dispatch attempts.",
		func(st *clusterStatsView) float64 { return float64(st.dispatched) })
	clusterCounter("faultcast_cluster_shards_discarded_total",
		"Dispatched shards whose tallies the merge never consumed (speculation past a cell's decision, or a cancelled cell).",
		func(st *clusterStatsView) float64 { return float64(st.discarded) })
	clusterCounter("faultcast_cluster_shard_retries_total",
		"Shards re-routed to another worker after a dispatch failure.",
		func(st *clusterStatsView) float64 { return float64(st.retries) })
	clusterCounter("faultcast_cluster_local_failovers_total",
		"Shards that ran out of workers and executed in process.",
		func(st *clusterStatsView) float64 { return float64(st.failovers) })
	worker := func(url string) []telemetry.Label { return []telemetry.Label{{Name: "worker", Value: url}} }
	r.Gauge("faultcast_cluster_worker_up",
		"1 while the worker is considered healthy, 0 during its down cooldown.",
		func(emit func([]telemetry.Label, float64)) {
			if s.opts.Cluster == nil {
				return
			}
			for _, w := range s.opts.Cluster.Status().Workers {
				up := 0.0
				if w.Healthy {
					up = 1
				}
				emit(worker(w.URL), up)
			}
		})
	r.Gauge("faultcast_cluster_worker_inflight",
		"Shards currently dispatched to the worker.",
		func(emit func([]telemetry.Label, float64)) {
			if s.opts.Cluster == nil {
				return
			}
			for _, w := range s.opts.Cluster.Status().Workers {
				emit(worker(w.URL), float64(w.Inflight))
			}
		})
	r.Counter("faultcast_cluster_worker_shards_total",
		"Completed shard dispatches per worker, by outcome.",
		func(emit func([]telemetry.Label, float64)) {
			if s.opts.Cluster == nil {
				return
			}
			for _, w := range s.opts.Cluster.Status().Workers {
				emit([]telemetry.Label{{Name: "outcome", Value: "failed"}, {Name: "worker", Value: w.URL}}, float64(w.ShardsFailed))
				emit([]telemetry.Label{{Name: "outcome", Value: "ok"}, {Name: "worker", Value: w.URL}}, float64(w.ShardsOK))
			}
		})
	r.Counter("faultcast_cluster_worker_trials_total",
		"Trials of successfully returned shards per worker.",
		func(emit func([]telemetry.Label, float64)) {
			if s.opts.Cluster == nil {
				return
			}
			for _, w := range s.opts.Cluster.Status().Workers {
				emit(worker(w.URL), float64(w.TrialsExecuted))
			}
		})

	counter("faultcast_traces_total",
		"Request traces started (0 when tracing is disabled).",
		func() float64 { return float64(s.tel.Started()) })
	r.Histogram("faultcast_request_duration_seconds",
		"Server-observed request latency by endpoint: handler entry to response written, all statuses.",
		func(emit func([]telemetry.Label, hist.Snapshot)) {
			emit(endpoint("estimate"), s.lat.estimate.Snapshot())
			emit(endpoint("shard"), s.lat.shard.Snapshot())
			emit(endpoint("sweep"), s.lat.sweep.Snapshot())
		})

	// Go runtime families, for the profiling story: correlate a latency
	// regression in the histograms above with GC pressure here, then dig
	// in via the -debug-addr pprof endpoints.
	gauge("go_goroutines",
		"Current goroutine count.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	mem := func() *runtime.MemStats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return &ms
	}
	gauge("go_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 { return float64(mem().HeapAlloc) })
	gauge("go_heap_objects",
		"Number of allocated heap objects.",
		func() float64 { return float64(mem().HeapObjects) })
	counter("go_alloc_bytes_total",
		"Cumulative bytes allocated for heap objects.",
		func() float64 { return float64(mem().TotalAlloc) })
	counter("go_gc_cycles_total",
		"Completed GC cycles.",
		func() float64 { return float64(mem().NumGC) })
	counter("go_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time.",
		func() float64 { return float64(mem().PauseTotalNs) / 1e9 })
	return r
}

// storeStatsView and clusterStatsView keep the metric closures above
// decoupled from the snapshot structs' field sets — adding a field to
// store.Stats or cluster.Status cannot silently change a metric.
type storeStatsView struct {
	loads, trialsLoaded, appends, appendErrors, corrupt uint64
}

type clusterStatsView struct {
	dispatched, discarded, retries, failovers uint64
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}
