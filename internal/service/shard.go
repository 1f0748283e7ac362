package service

import (
	"errors"
	"net/http"
	"time"

	"faultcast/internal/cluster"
	"faultcast/internal/telemetry"
)

// BeginDrain puts the server into drain mode: new /v1/shard work is
// refused with 503/"draining" — coordinators treat that as a dispatch
// failure and re-route the shard to another worker or run it locally —
// while estimates, sweeps, and shards already admitted run to
// completion. faultcastd calls this on SIGTERM before http.Server.
// Shutdown, so by the time the listener closes every in-flight shard has
// been answered, not dropped. Draining is irreversible for the process
// (it only ever precedes shutdown) and is surfaced in /healthz and
// /v1/stats.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ShardInflight reports the number of /v1/shard executions currently
// running — zero once a drain has quiesced.
func (s *Server) ShardInflight() int { return int(s.shardInflight.Load()) }

// shardRefusals are /v1/shard's admission error messages.
var shardRefusals = refusals{
	full:     "shard capacity exhausted; re-dispatch elsewhere or retry shortly",
	canceled: "shard canceled by the coordinator while queued",
}

// handleShard executes one shard of a remote coordinator's trial stream:
// rebuild the scenario from the wire (verifying the coordinator's plan
// key), reuse or compile the plan through the same seed-less plan cache
// every other endpoint shares — so all shards of a scenario compile at
// most once per worker, and reuse the runners the cached plan lends —
// run the shard's exact seed range with no stopping rule, and return the
// per-batch success tally. Shards occupy an admission slot like any other
// execution, so a worker under coordinator load still backpressures with
// 429 rather than oversubscribe its cores.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	s.c.shardCalls.Add(1)
	start := time.Now()
	defer func() { s.lat.shard.Observe(time.Since(start)) }()
	if s.draining.Load() {
		s.c.shardsDrained.Add(1)
		writeError(w, "", http.StatusServiceUnavailable, ErrorResponse{
			Error:             "worker is draining; re-dispatch the shard elsewhere",
			Code:              "draining",
			RetryAfterSeconds: 1,
		})
		return
	}
	// The inflight count covers validation through execution: a drain
	// beginning after this point lets the shard finish.
	s.shardInflight.Add(1)
	defer s.shardInflight.Add(-1)

	var req cluster.ShardRequest
	if !s.decode(w, r, 16<<20, &req, "") {
		return
	}
	cfg, key, err := req.Config()
	if errors.Is(err, cluster.ErrPlanKeyMismatch) {
		// 409, not 400: the request was well-formed, but the two sides
		// disagree on what scenario it names — version drift the
		// coordinator must surface, not retry around.
		s.c.badRequests.Add(1)
		writeError(w, "", http.StatusConflict, ErrorResponse{Error: err.Error(), Code: "plan-key-mismatch"})
		return
	}
	if err != nil {
		s.reject(w, "", err)
		return
	}
	if n := cfg.Graph.N(); n > s.opts.MaxNodes {
		s.reject(w, "", &requestError{code: "graph-too-large", field: "graph", msg: "shard graph exceeds this worker's max_nodes"})
		return
	}
	if err := req.CheckShard(s.opts.MaxTrials); err != nil {
		s.reject(w, "", err)
		return
	}

	// When the coordinator propagated a trace ID, record this shard's
	// execution as a worker-local trace: it is filed in THIS worker's ring
	// (tagged with the coordinator's ID for cross-referencing), and its
	// finished span tree rides back on the response for the coordinator to
	// graft under its dispatch span.
	var tr *telemetry.Trace
	if coordID := r.Header.Get(telemetry.TraceHeader); coordID != "" {
		tr = s.tel.StartTrace("shard")
		tr.Root().SetAttr("coordinator_trace", coordID)
		tr.Root().SetAttr("index", req.Index)
		defer tr.Finish()
	}

	// A canceled shard was abandoned by its coordinator while queued (its
	// own deadline, or its caller hung up).
	if status, refusal := s.admit(r.Context(), tr, shardRefusals); status != http.StatusOK {
		writeError(w, tr.ID(), status, refusal)
		return
	}
	defer s.release()

	psp := tr.StartSpan("plan")
	plan, cached, err := s.plan(psp, key, cfg)
	psp.End()
	if err != nil {
		// Compile rejects scenario mismatches validation cannot see
		// (e.g. flooding requested under the radio model).
		s.reject(w, tr.ID(), err)
		return
	}
	xsp := tr.StartSpan("execute")
	tally := plan.TallyShard(req.BaseSeed, req.Trials, req.Batch, s.opts.Workers)
	xsp.SetAttr("core", plan.EstimationCore())
	xsp.SetAttr("trials", tally.Trials)
	xsp.End()
	s.c.shardsExecuted.Add(1)
	s.c.shardTrials.Add(uint64(tally.Trials))
	s.c.ranOnEngine(plan.EstimationCore(), tally.Trials)
	source := "compiled"
	if cached {
		source = "cache"
	}
	// Seal the trace BEFORE marshaling so the root span's duration is on
	// the wire; the deferred Finish above then no-ops.
	tr.Finish()
	writeJSON(w, http.StatusOK, cluster.ShardResponse{
		Key:        key,
		Index:      req.Index,
		Trials:     tally.Trials,
		Batch:      tally.Batch,
		Successes:  tally.Successes,
		PlanSource: source,
		Trace:      tr.Root(),
	})
}
