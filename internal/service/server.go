package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"faultcast"
	"faultcast/internal/cluster"
	"faultcast/internal/hist"
	"faultcast/internal/stat"
	"faultcast/internal/store"
	"faultcast/internal/telemetry"
)

// Options tunes a Server. The zero value gets sensible defaults (see
// withDefaults); fields are only ever lowered by validation, never raised.
type Options struct {
	// MaxNodes rejects requests whose graph has more vertices (default
	// 4096). The graph-spec parser's own 65536 cap bounds parsing; this
	// bounds simulation work per admitted request.
	MaxNodes int
	// MaxTrials caps the per-request trial budget (default 200000);
	// DefaultTrials is used when a request names none (default 1000).
	MaxTrials     int
	DefaultTrials int
	// MaxSweepCells rejects sweep requests whose axis cross product
	// expands to more cells (default 1024). A sweep occupies one
	// admission slot regardless of cell count — the cells share one
	// worker pool — so this bounds the work a single slot can hold.
	MaxSweepCells int
	// PlanCacheSize bounds the compiled-plan LRU (default 256 plans).
	// Without Store, ResultCacheSize sizes the in-memory tally store: it
	// holds ResultCacheSize default-budget streams' worth of buckets,
	// ResultCacheSize × ⌈DefaultTrials/32⌉ in all (default 4096 streams,
	// 131072 buckets, 2 MiB), least recently used streams evicted first.
	PlanCacheSize   int
	ResultCacheSize int
	// MaxInflight bounds concurrently executing estimations (default
	// GOMAXPROCS); MaxQueue bounds callers waiting for a slot (default
	// 64; negative = no waiting). Beyond both, requests get 429.
	MaxInflight int
	MaxQueue    int
	// Workers is the worker count per estimation (default 0 =
	// GOMAXPROCS). With MaxInflight > 1, lowering it keeps one request
	// from monopolizing the cores.
	Workers int
	// Cluster, when non-nil, puts the server in coordinator mode: every
	// estimate and sweep dispatches its trial stream through the cluster
	// coordinator (shards fanned out to remote workers, transparent local
	// failover) instead of the in-process pool, with bit-identical
	// results. The coordinator's per-worker health and shard counters are
	// surfaced in /v1/stats.
	Cluster *cluster.Coordinator
	// TraceRing bounds the retained finished request traces (default 256;
	// negative disables tracing entirely — span calls become nil no-ops).
	// TraceSlowest keeps the N slowest traces beyond ring eviction
	// (default 16). Retained traces are listed at GET /v1/trace and
	// fetched at GET /v1/trace/{id}.
	TraceRing    int
	TraceSlowest int
	// Store, when non-nil, is the durable tally store (faultcastd
	// -store=DIR); without it the server keeps a bounded in-memory one.
	// Either way every estimate and sweep cell resumes from the tally
	// store's trial prefix and appends its marginal batches back, so a
	// refined answer is bit-identical to a cold one; the durable store
	// also lets a restarted daemon answer previously-served requests
	// with zero trials. Store counters surface in /v1/stats under
	// "store".
	Store *store.Store
	// Now is the clock, overridable by tests (default time.Now).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 4096
	}
	if o.MaxTrials <= 0 {
		o.MaxTrials = 200000
	}
	if o.DefaultTrials <= 0 {
		o.DefaultTrials = 1000
	}
	if o.DefaultTrials > o.MaxTrials {
		o.DefaultTrials = o.MaxTrials
	}
	if o.MaxSweepCells <= 0 {
		o.MaxSweepCells = 1024
	}
	if o.PlanCacheSize <= 0 {
		o.PlanCacheSize = 256
	}
	if o.ResultCacheSize <= 0 {
		o.ResultCacheSize = 4096
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = runtime.GOMAXPROCS(0)
	}
	switch {
	case o.MaxQueue == 0:
		o.MaxQueue = 64
	case o.MaxQueue < 0:
		o.MaxQueue = 0
	}
	if o.TraceRing == 0 {
		o.TraceRing = 256
	}
	if o.TraceSlowest <= 0 {
		o.TraceSlowest = 16
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Server is the faultcastd request handler: the plan cache, the tally
// store, singleflight coalescing, bounded admission, and the HTTP surface
// over them. Create with New; all methods are safe for concurrent use.
type Server struct {
	opts  Options
	start time.Time

	mu    sync.Mutex
	plans *lru[*faultcast.Plan]
	// tallies is the one path by which answers reuse trials:
	// Options.Store, or a bounded in-memory store.
	tallies faultcast.TallyStore
	// sweeps caches whole compiled SweepPlans by grid identity, so a
	// polling client re-sweeping the same grid skips all compilation
	// (its cells then replay from the tally store). Deliberately small:
	// one entry can hold up to MaxSweepCells compiled plans.
	sweeps *lru[*faultcast.SweepPlan]

	flight  flightGroup
	slots   chan struct{}
	waiting atomic.Int64

	// draining gates /v1/shard: once set, new shard work is refused with
	// 503 while everything already admitted runs to completion — the
	// graceful-drain half of a worker's SIGTERM handling.
	draining      atomic.Bool
	shardInflight atomic.Int64

	c counters

	// tel retains finished request traces (nil when Options.TraceRing is
	// negative — every span call then no-ops); reg is the /metrics
	// registry, re-expressing the same counters /v1/stats reads.
	tel *telemetry.Collector
	reg *telemetry.Registry

	// lat records server-observed request latency per endpoint (handler
	// entry to response written, all statuses), surfaced in /v1/stats so
	// a load harness can cross-check its client-side percentiles against
	// what the server itself saw.
	lat struct {
		estimate hist.Histogram
		sweep    hist.Histogram
		shard    hist.Histogram
	}
}

type counters struct {
	requests           atomic.Uint64
	estimateCalls      atomic.Uint64
	sweepCalls         atomic.Uint64
	sweepCells         atomic.Uint64
	sweepCellCacheHits atomic.Uint64
	badRequests        atomic.Uint64
	cacheHits          atomic.Uint64
	coalesced          atomic.Uint64
	coalescedErrors    atomic.Uint64
	executions         atomic.Uint64
	refines            atomic.Uint64
	rejected           atomic.Uint64
	canceled           atomic.Uint64
	trialsSimulated    atomic.Uint64
	planCompiles       atomic.Uint64
	planCacheHits      atomic.Uint64
	shardCalls         atomic.Uint64
	shardsExecuted     atomic.Uint64
	shardTrials        atomic.Uint64
	shardsDrained      atomic.Uint64
	storeHits          atomic.Uint64

	// Per-core execution counters: which engine (Plan.EstimationCore)
	// actually simulated, across estimates, sweep cells, and shards. No
	// request selects an engine: Compile picks lanes or bitset from the
	// scenario.
	coreLanes  atomic.Uint64
	coreBitset atomic.Uint64
}

// ranOnEngine counts work that reached an estimation engine: its trials,
// and one execution of the named core.
func (c *counters) ranOnEngine(core string, trials int) {
	c.trialsSimulated.Add(uint64(trials))
	if core == "lanes" {
		c.coreLanes.Add(1)
	} else {
		c.coreBitset.Add(1)
	}
}

// New returns a Server with the given options (zero fields defaulted).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:   opts,
		start:  opts.Now(),
		plans:  newLRU[*faultcast.Plan](opts.PlanCacheSize),
		sweeps: newLRU[*faultcast.SweepPlan](16),
		slots:  make(chan struct{}, opts.MaxInflight),
	}
	if opts.Store != nil {
		s.tallies = opts.Store
	} else {
		buckets := (opts.DefaultTrials + stat.DefaultBatch - 1) / stat.DefaultBatch
		s.tallies = newMemTallyStore(opts.ResultCacheSize * buckets)
	}
	if opts.TraceRing > 0 {
		s.tel = telemetry.NewCollector(opts.TraceRing, opts.TraceSlowest)
	}
	s.reg = s.buildMetrics()
	return s
}

// Metrics exposes the server's registry (for golden-name tests and the
// faultcastctl metrics subcommand's offline mode).
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Traces exposes the trace collector (nil when tracing is disabled).
func (s *Server) Traces() *telemetry.Collector { return s.tel }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/shard", s.handleShard)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/trace", s.handleTraceIndex)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	// The catch-all matches before the mux's automatic 405, so method
	// mismatches on known paths are distinguished from unknown paths here.
	methods := map[string]string{"/v1/estimate": http.MethodPost, "/v1/sweep": http.MethodPost, "/v1/shard": http.MethodPost, "/v1/scenarios": http.MethodGet, "/v1/stats": http.MethodGet, "/v1/trace": http.MethodGet, "/metrics": http.MethodGet, "/healthz": http.MethodGet}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if want, ok := methods[r.URL.Path]; ok {
			w.Header().Set("Allow", want)
			writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{
				Error: fmt.Sprintf("%s requires %s, got %s", r.URL.Path, want, r.Method),
				Code:  "method-not-allowed",
			})
			return
		}
		writeJSON(w, http.StatusNotFound, ErrorResponse{
			Error: fmt.Sprintf("no such endpoint %s %s", r.Method, r.URL.Path),
			Code:  "not-found",
		})
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.c.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.c.estimateCalls.Add(1)
	start := time.Now()
	defer func() { s.lat.estimate.Observe(time.Since(start)) }()
	tr := s.tel.StartTrace("estimate")
	defer tr.Finish()
	var req EstimateRequest
	if !s.decode(w, r, 1<<20, &req, tr.ID()) {
		return
	}
	cfg, trials, err := req.config(s.opts)
	if err != nil {
		s.reject(w, tr.ID(), err)
		return
	}
	key := cfg.Fingerprint()
	planKey := seedlessKey(cfg)
	// clamped: the server reduced the requested budget to MaxTrials.
	// (trials only ever shrinks below req.Trials by that clamp; the
	// req.Trials == 0 default path grows it.) Echoed on every successful
	// answer so callers can see the budget they actually got.
	clamped := req.Trials > 0 && trials < req.Trials
	annotate := func(resp *EstimateResponse) {
		if clamped {
			resp.TrialsRequested = req.Trials
			resp.Clamped = true
		}
	}

	tr.Root().SetAttr("key", key)

	// Fast path: a stored prefix that already decides the request
	// answers with zero simulation and no slot.
	if resp, ok := s.recall(tr, cfg, key, planKey, trials, req.HalfWidth); ok {
		annotate(&resp)
		resp.TraceID = tr.ID()
		writeJSON(w, http.StatusOK, resp)
		return
	}

	// Coalesce on (semantics, requirement): N concurrent identical
	// requests trigger one execution and all ride its outcome.
	out, shared := s.flight.do(estimateFlightKey(key, trials, req.HalfWidth), func() outcome {
		// The execution belongs to the coalesced group, not to whoever
		// happened to arrive first: detach the leader's cancellation so
		// one disconnecting client can't turn everyone's answer into a
		// 429 while it waits for a slot. The wait stays bounded —
		// estimates always terminate and MaxQueue caps the queue.
		o := s.execute(context.WithoutCancel(r.Context()), tr, cfg, key, planKey, trials, req.HalfWidth)
		o.traceID = tr.ID()
		return o
	})
	if shared {
		// Riders have an empty trace of their own; record which trace did
		// the work so /v1/trace navigates from the rider to the leader.
		tr.Root().SetAttr("served", "coalesced")
		tr.Root().SetAttr("coalesced_with", out.traceID)
		// Only a shared SUCCESS is a coalesce — simulation the rider did
		// not pay for. Riding a failed leader saved nothing; count it
		// separately, and count every 429 actually returned as rejected
		// (the leader's own 429 was already counted where it failed), so
		// rejected in /v1/stats equals the 429s a load harness observes.
		switch {
		case out.status == http.StatusOK:
			s.c.coalesced.Add(1)
			out.resp.Served = "coalesced"
			out.resp.TrialsSimulated = 0
		case out.status == http.StatusTooManyRequests:
			s.c.coalescedErrors.Add(1)
			s.c.rejected.Add(1)
		default:
			s.c.coalescedErrors.Add(1)
		}
	}
	if out.status != http.StatusOK {
		writeError(w, tr.ID(), out.status, out.errResp)
		return
	}
	annotate(&out.resp)
	// Every response echoes ITS request's trace, not the leader's: a
	// rider's trace is where its coalesced_with pointer lives.
	out.resp.TraceID = tr.ID()
	writeJSON(w, http.StatusOK, out.resp)
}

// estimateFlightKey names one coalescable computation: the canonical
// config fingerprint plus the effective confidence requirement.
func estimateFlightKey(key string, trials int, halfWidth float64) string {
	return fmt.Sprintf("%s|t:%d|hw:%016x", key, trials, math.Float64bits(halfWidth))
}

// seedlessKey is the plan-cache key of a request's scenario: the compiled
// plan is identical for every seed of a scenario (the seed only defaults
// the base of the trial stream, which WithBaseSeed pins), so a seed sweep
// over one scenario compiles once. It equals the plan's StoreKey.
func seedlessKey(cfg faultcast.Config) string {
	cfg.Seed = 0
	return cfg.Fingerprint()
}

// requestOptions are the estimate options that define a request's
// answer: its trial stream, its stopping rule and the tally store. recall
// and execute share them, so a recalled answer is the one an execution
// would give.
func (s *Server) requestOptions(seed uint64, halfWidth float64) []faultcast.EstimateOption {
	opts := []faultcast.EstimateOption{faultcast.WithBaseSeed(seed), faultcast.WithTallyStore(s.tallies)}
	if halfWidth > 0 {
		opts = append(opts, faultcast.WithHalfWidth(halfWidth))
	}
	return opts
}

// recall answers a request from the tally store's stored prefix alone
// (Plan.Recall): no simulation, no admission slot, and the cold answer's
// bits. It needs the scenario's plan already in the plan cache; a miss
// falls through to execute, which answers a deciding prefix with zero
// trials all the same.
func (s *Server) recall(tr *telemetry.Trace, cfg faultcast.Config, key, planKey string, trials int, halfWidth float64) (EstimateResponse, bool) {
	s.mu.Lock()
	plan, ok := s.plans.get(planKey)
	s.mu.Unlock()
	if !ok {
		return EstimateResponse{}, false
	}
	est, ok := plan.Recall(trials, s.requestOptions(cfg.Seed, halfWidth)...)
	if !ok {
		return EstimateResponse{}, false
	}
	core := plan.EstimationCore()
	served, _ := s.ledger(false, core, est.Trials, est.Trials)
	tr.Root().SetAttr("served", served)
	return s.response(cfg, key, est, plan.Rounds(), core, served, 0), true
}

// execute is the singleflight leader's path: admission, plan lookup or
// compile, and an estimate resumed from the tally store — fresh, topped
// up, or (a stored prefix that already decides it) zero-trial. The trace
// gains one span per stage (admission wait, plan lookup/compile,
// execution) — purely observational, and nil-safe when tracing is
// disabled.
func (s *Server) execute(ctx context.Context, tr *telemetry.Trace, cfg faultcast.Config, key, planKey string, trials int, halfWidth float64) outcome {
	// An earlier leader on the same key may have stored a deciding prefix
	// since the handler's own recall.
	if resp, ok := s.recall(tr, cfg, key, planKey, trials, halfWidth); ok {
		return outcome{status: http.StatusOK, resp: resp}
	}
	// Cancellation is unreachable here in practice: handleEstimate
	// detaches the leader's.
	if status, refusal := s.admit(ctx, tr, estimationRefusals); status != http.StatusOK {
		return outcome{status: status, errResp: refusal}
	}
	defer s.release()

	seedless := cfg
	seedless.Seed = 0
	psp := tr.StartSpan("plan")
	plan, _, err := s.plan(psp, planKey, seedless)
	psp.End()
	if err != nil {
		// Compile rejects scenario mismatches request validation cannot
		// see (e.g. flooding requested under the radio model).
		s.c.badRequests.Add(1)
		return outcome{status: http.StatusBadRequest, errResp: ErrorResponse{Error: err.Error(), Code: "bad-request"}}
	}
	// The estimate resumes from the tally store's replay, which
	// reproduces a cold run's stop decisions, so the answer depends only
	// on this request.
	resumed := 0
	opts := append(s.requestOptions(cfg.Seed, halfWidth), faultcast.WithResumeReport(func(n int) { resumed = n }))
	if s.opts.Workers > 0 {
		opts = append(opts, faultcast.WithWorkers(s.opts.Workers))
	}
	if s.opts.Cluster != nil {
		opts = append(opts, faultcast.WithDispatcher(s.opts.Cluster))
	}
	xsp := tr.StartSpan("execute")
	var agg batchAgg
	if xsp != nil {
		// Only attach observation hooks when someone is listening — the
		// probe costs two clock reads per batch in the scheduler.
		opts = append(opts, faultcast.WithSpan(xsp), faultcast.WithBatchProbe(agg.observe))
	}
	est, err := plan.Estimate(trials, opts...)
	if err != nil {
		xsp.End()
		return outcome{status: http.StatusInternalServerError, errResp: ErrorResponse{Error: err.Error(), Code: "internal"}}
	}
	core := plan.EstimationCore()
	xsp.SetAttr("core", core)
	agg.annotate(xsp)
	xsp.End()
	// A stored prefix that already decides the request is recall's answer,
	// reached without the plan cache (e.g. the first ask after a warm
	// restart, before the plan is compiled): the ledger serves it as
	// "cache", and it never reached the engine.
	served, simulated := s.ledger(false, core, est.Trials, resumed)
	tr.Root().SetAttr("served", served)
	tr.Root().SetAttr("trials_simulated", simulated)
	if resumed > 0 {
		tr.Root().SetAttr("resumed_trials", resumed)
	}
	return outcome{status: http.StatusOK, resp: s.response(cfg, key, est, plan.Rounds(), core, served, simulated)}
}

// admission is the outcome of acquire: a slot was taken, capacity is
// exhausted (reject with backpressure), or the caller's own context was
// cancelled while queued. The last two are deliberately distinct — a
// client hanging up is not server overload, and conflating them (as an
// early version did) pollutes the rejected counter and hands impatient
// clients a Retry-After they will never read.
type admission int

const (
	admitted admission = iota
	admitFull
	admitCanceled
)

// statusClientClosedRequest is the nginx-convention status for "the
// client went away before we could answer"; the body is unreadable by
// definition, the code only feeds access logs and tests.
const statusClientClosedRequest = 499

// refusals are an endpoint's admission error messages: when capacity is
// exhausted, and when the caller gave up while queued.
type refusals struct{ full, canceled string }

var estimationRefusals = refusals{
	full:     "estimation capacity exhausted; retry shortly",
	canceled: "request canceled by the client while queued",
}

// admit is the one admission gate of /v1/estimate, /v1/sweep and
// /v1/shard: it takes an execution slot, timing the wait as tr's
// "admission" span, and returns 200 once admitted — the caller must then
// release the slot. A refused request gets its status and error body:
// 429 "overloaded" with a one-second retry hint when capacity is
// exhausted (rejected +1), or 499 "canceled" when ctx ended while queued
// (canceled +1, no retry hint: nobody is listening for one).
func (s *Server) admit(ctx context.Context, tr *telemetry.Trace, msg refusals) (int, ErrorResponse) {
	adm := tr.StartSpan("admission")
	verdict := s.acquire(ctx)
	adm.End()
	switch verdict {
	case admitFull:
		adm.SetAttr("outcome", "rejected")
		s.c.rejected.Add(1)
		return http.StatusTooManyRequests, ErrorResponse{Error: msg.full, Code: "overloaded", RetryAfterSeconds: 1}
	case admitCanceled:
		adm.SetAttr("outcome", "canceled")
		s.c.canceled.Add(1)
		return statusClientClosedRequest, ErrorResponse{Error: msg.canceled, Code: "canceled"}
	}
	adm.SetAttr("outcome", "admitted")
	return http.StatusOK, ErrorResponse{}
}

// acquire takes an execution slot, waiting while the queue has room.
// It returns admitFull once MaxInflight executions are running AND
// MaxQueue callers are already waiting, and admitCanceled if the caller's
// request is cancelled while queued.
func (s *Server) acquire(ctx context.Context) admission {
	select {
	case s.slots <- struct{}{}:
		return admitted
	default:
	}
	if s.waiting.Add(1) > int64(s.opts.MaxQueue) {
		s.waiting.Add(-1)
		return admitFull
	}
	defer s.waiting.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return admitted
	case <-ctx.Done():
		return admitCanceled
	}
}

func (s *Server) release() { <-s.slots }

// plan returns the cached compiled plan for key, compiling (outside the
// cache lock — compiles can be slow) on a miss; cached reports which of
// the two happened (the shard endpoint surfaces it to its coordinator).
// sp is the caller's "plan" span (nil-safe): a hit tags it
// source=cache, a miss hangs the compile time under it as a child.
func (s *Server) plan(sp *telemetry.Span, key string, cfg faultcast.Config) (plan *faultcast.Plan, cached bool, err error) {
	s.mu.Lock()
	if p, ok := s.plans.get(key); ok {
		s.mu.Unlock()
		s.c.planCacheHits.Add(1)
		sp.SetAttr("source", "cache")
		return p, true, nil
	}
	s.mu.Unlock()
	csp := sp.StartChild("compile")
	plan, err = faultcast.Compile(cfg)
	csp.End()
	if err != nil {
		return nil, false, err
	}
	s.c.planCompiles.Add(1)
	sp.SetAttr("source", "compiled")
	s.mu.Lock()
	s.plans.put(key, plan, 1)
	s.mu.Unlock()
	return plan, false, nil
}

func (s *Server) response(cfg faultcast.Config, key string, est faultcast.Estimate, rounds int, core, served string, simulated int) EstimateResponse {
	n := cfg.Graph.N()
	target := 1 - 1/float64(n)
	return EstimateResponse{
		Key:              key,
		Rate:             est.Rate,
		Low:              est.Low,
		High:             est.Hi,
		HalfWidth:        (est.Hi - est.Low) / 2,
		Trials:           est.Trials,
		Successes:        est.Succeeds,
		AlmostSafeTarget: target,
		Almostsafe:       est.AlmostSafe(n),
		Rounds:           rounds,
		N:                n,
		Core:             core,
		Served:           served,
		TrialsSimulated:  simulated,
	}
}

// ledger classifies one answer — an estimate or a sweep cell — by where
// its trials came from, and counts it. It is the one place that decides
// served: "cache" when the tally store's replay decided the answer with
// zero trials simulated (a store hit, and a cache hit of the endpoint's
// kind), "refined" when a stored prefix was topped up by the marginal
// trials, "simulated" otherwise. Only answers that simulated reached the
// engine, so only they count toward trials_simulated, executions_by_core
// and, for estimates, executions.
func (s *Server) ledger(sweepCell bool, core string, trials, resumed int) (served string, simulated int) {
	simulated = trials - resumed
	if simulated == 0 {
		s.c.storeHits.Add(1)
		if sweepCell {
			s.c.sweepCellCacheHits.Add(1)
		} else {
			s.c.cacheHits.Add(1)
		}
		return "cache", 0
	}
	served = "simulated"
	if resumed > 0 {
		served = "refined"
		s.c.refines.Add(1)
	}
	if !sweepCell {
		s.c.executions.Add(1)
	}
	s.c.ranOnEngine(core, simulated)
	return served, simulated
}

// decode reads r's JSON body into v — at most limit bytes, no unknown
// fields — for every POST endpoint. A body that fails to decode is
// answered 400 "bad-json", and decode returns false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, limit int64, v any, traceID string) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.c.badRequests.Add(1)
		writeError(w, traceID, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "bad-json"})
		return false
	}
	return true
}

// reject answers a request that validation or compilation refused with
// 400 and counts it: a *requestError keeps its code and field, any other
// error is "bad-request".
func (s *Server) reject(w http.ResponseWriter, traceID string, err error) {
	s.c.badRequests.Add(1)
	e := ErrorResponse{Error: err.Error(), Code: "bad-request"}
	if re, ok := err.(*requestError); ok {
		e.Code, e.Field = re.code, re.field
	}
	writeError(w, traceID, http.StatusBadRequest, e)
}

// writeError writes an error answer stamped with the request's trace id,
// with a Retry-After header mirroring the body's retry hint, if any.
func writeError(w http.ResponseWriter, traceID string, status int, e ErrorResponse) {
	if e.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSeconds))
	}
	e.TraceID = traceID
	writeJSON(w, status, e)
}

// Stats is the body of GET /v1/stats.
type Stats struct {
	UptimeSeconds      float64 `json:"uptime_seconds"`
	Requests           uint64  `json:"requests"`
	EstimateRequests   uint64  `json:"estimate_requests"`
	SweepRequests      uint64  `json:"sweep_requests"`
	SweepCells         uint64  `json:"sweep_cells"`
	SweepCellCacheHits uint64  `json:"sweep_cell_cache_hits"`
	BadRequests        uint64  `json:"bad_requests"`
	CacheHits          uint64  `json:"cache_hits"`
	// Coalesced counts requests that rode another's SUCCESSFUL in-flight
	// execution; CoalescedErrors counts riders of a failed one (no work
	// was saved — the follower just shared the leader's error).
	Coalesced       uint64 `json:"coalesced"`
	CoalescedErrors uint64 `json:"coalesced_errors"`
	// Executions counts estimates that simulated trials on the engine; an
	// estimate the tally store's replay answers is a cache hit instead.
	Executions uint64 `json:"executions"`
	Refines    uint64 `json:"refines"`
	// Rejected counts every 429 actually returned (leaders and riders
	// alike), so it matches the reject rate a load harness observes.
	// Canceled counts callers whose own request died while queued for a
	// slot — client impatience, deliberately NOT part of Rejected.
	Rejected         uint64 `json:"rejected"`
	Canceled         uint64 `json:"canceled"`
	TrialsSimulated  uint64 `json:"trials_simulated"`
	PlanCompiles     uint64 `json:"plan_compiles"`
	PlanCacheHits    uint64 `json:"plan_cache_hits"`
	InFlight         int    `json:"in_flight"`
	Waiting          int64  `json:"waiting"`
	PlanCacheEntries int    `json:"plan_cache_entries"`
	// Worker-side shard counters (the /v1/shard endpoint).
	ShardRequests  uint64 `json:"shard_requests"`
	ShardsExecuted uint64 `json:"shards_executed"`
	ShardTrials    uint64 `json:"shard_trials"`
	ShardsDrained  uint64 `json:"shards_drained"`
	ShardInflight  int64  `json:"shard_inflight"`
	Draining       bool   `json:"draining"`
	// StoreHits counts requests (and sweep cells) fully answered by the
	// tally store's replay — zero trials simulated. The tally store is the
	// durable one with -store, the bounded in-memory one otherwise.
	// Refines counts those that resumed a stored prefix and simulated
	// only the marginal batches.
	StoreHits uint64 `json:"store_hits"`
	// ExecutionsByCore splits simulating work (estimates, sweep cells,
	// shards) by the estimation engine that ran it: "lanes" or "bitset".
	ExecutionsByCore map[string]uint64 `json:"executions_by_core"`
	// Store is the durable tally store's own ledger — loads, appends,
	// rewinds, corrupt-records-skipped. Present only with -store.
	Store *store.Stats `json:"store,omitempty"`
	// Cluster is the coordinator's fleet snapshot — per-worker health,
	// shard counters, and plan-cache hit rates. Present only in
	// coordinator mode (faultcastd -workers).
	Cluster *cluster.Status `json:"cluster,omitempty"`
	// Latency holds server-observed per-endpoint latency summaries
	// (keys "estimate", "sweep", "shard"; handler entry to response
	// written, all statuses, since process start). A load harness
	// cross-checks its client-side percentiles against these.
	Latency map[string]hist.Summary `json:"latency"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	planLen := s.plans.len()
	s.mu.Unlock()
	st := Stats{
		UptimeSeconds:      s.opts.Now().Sub(s.start).Seconds(),
		Requests:           s.c.requests.Load(),
		EstimateRequests:   s.c.estimateCalls.Load(),
		SweepRequests:      s.c.sweepCalls.Load(),
		SweepCells:         s.c.sweepCells.Load(),
		SweepCellCacheHits: s.c.sweepCellCacheHits.Load(),
		BadRequests:        s.c.badRequests.Load(),
		CacheHits:          s.c.cacheHits.Load(),
		Coalesced:          s.c.coalesced.Load(),
		CoalescedErrors:    s.c.coalescedErrors.Load(),
		Executions:         s.c.executions.Load(),
		Refines:            s.c.refines.Load(),
		Rejected:           s.c.rejected.Load(),
		Canceled:           s.c.canceled.Load(),
		TrialsSimulated:    s.c.trialsSimulated.Load(),
		PlanCompiles:       s.c.planCompiles.Load(),
		PlanCacheHits:      s.c.planCacheHits.Load(),
		InFlight:           len(s.slots),
		Waiting:            s.waiting.Load(),
		PlanCacheEntries:   planLen,
		ShardRequests:      s.c.shardCalls.Load(),
		ShardsExecuted:     s.c.shardsExecuted.Load(),
		ShardTrials:        s.c.shardTrials.Load(),
		ShardsDrained:      s.c.shardsDrained.Load(),
		ShardInflight:      s.shardInflight.Load(),
		Draining:           s.draining.Load(),
		StoreHits:          s.c.storeHits.Load(),
		ExecutionsByCore: map[string]uint64{
			"lanes":  s.c.coreLanes.Load(),
			"bitset": s.c.coreBitset.Load(),
		},
		Latency: map[string]hist.Summary{
			"estimate": s.lat.estimate.Snapshot().Summarize(),
			"sweep":    s.lat.sweep.Snapshot().Summarize(),
			"shard":    s.lat.shard.Snapshot().Summarize(),
		},
	}
	if s.opts.Store != nil {
		ss := s.opts.Store.Stats()
		st.Store = &ss
	}
	if s.opts.Cluster != nil {
		cs := s.opts.Cluster.Status()
		st.Cluster = &cs
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		// Still 200 — the process is healthy — but load balancers and
		// coordinators can see the drain and steer work elsewhere.
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"uptime_seconds": s.opts.Now().Sub(s.start).Seconds(),
	})
}

// ScenarioInfo is the body of GET /v1/scenarios: the request vocabulary
// and this server's limits.
type ScenarioInfo struct {
	GraphFamilies []GraphFamily  `json:"graph_families"`
	Models        []string       `json:"models"`
	Faults        []string       `json:"faults"`
	Algorithms    []string       `json:"algorithms"`
	Adversaries   []string       `json:"adversaries"`
	Limits        ScenarioLimits `json:"limits"`
}

// GraphFamily documents one graph-spec form.
type GraphFamily struct {
	Spec        string `json:"spec"`
	Example     string `json:"example"`
	Description string `json:"description"`
}

// ScenarioLimits echoes the admission/validation limits of this server.
type ScenarioLimits struct {
	MaxNodes      int `json:"max_nodes"`
	MaxTrials     int `json:"max_trials"`
	DefaultTrials int `json:"default_trials"`
	MaxSweepCells int `json:"max_sweep_cells"`
	MaxInflight   int `json:"max_inflight"`
	MaxQueue      int `json:"max_queue"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ScenarioInfo{
		GraphFamilies: []GraphFamily{
			{"line:N", "line:64", "path graph"},
			{"ring:N", "ring:32", "cycle graph (N >= 3)"},
			{"star:N", "star:10", "star with center 0"},
			{"complete:N", "complete:16", "K_N (N <= 1024)"},
			{"k2", "k2", "the two-node graph K2"},
			{"tree:N:K", "tree:31:2", "complete K-ary tree in heap layout"},
			{"grid:RxC", "grid:8x8", "R-by-C grid"},
			{"torus:RxC", "torus:6x6", "R-by-C torus (both >= 3)"},
			{"hypercube:D", "hypercube:6", "D-dimensional hypercube (D <= 16)"},
			{"layered:M", "layered:6", "the Section 3 radio lower-bound graph G_M"},
			{"caterpillar:S:L", "caterpillar:16:3", "spine path with L legs per vertex"},
			{"gnp:N:P", "gnp:128:0.05", "connected Erdős–Rényi graph (N <= 1024; deterministic in seed)"},
			{"randtree:N", "randtree:100", "random labeled tree (deterministic in seed)"},
		},
		Models:      []string{"mp", "radio"},
		Faults:      []string{"omission", "malicious", "limited"},
		Algorithms:  []string{"auto", "simple-omission", "simple-malicious", "flooding", "composed", "radio-repeat", "timing-bit"},
		Adversaries: []string{"worst", "crash", "flip", "noise"},
		Limits: ScenarioLimits{
			MaxNodes:      s.opts.MaxNodes,
			MaxTrials:     s.opts.MaxTrials,
			DefaultTrials: s.opts.DefaultTrials,
			MaxSweepCells: s.opts.MaxSweepCells,
			MaxInflight:   s.opts.MaxInflight,
			MaxQueue:      s.opts.MaxQueue,
		},
	})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}
