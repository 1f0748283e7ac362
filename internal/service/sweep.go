package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"faultcast"
	"faultcast/internal/telemetry"
)

// sweepKey serializes a validated spec's identity for the compiled-sweep
// LRU: graph structural fingerprints plus sources, every axis value
// (floats by their IEEE-754 bits), the shared cell parameters, the
// master seed, and the full budget. Two requests with equal keys expand
// to identical cell grids with identical derived seeds, so their
// compiled SweepPlans — immutable and safe for concurrent use — are
// interchangeable.
func sweepKey(spec faultcast.SweepSpec) string {
	var b strings.Builder
	b.WriteString("sweep/v1")
	for _, g := range spec.Graphs {
		fp := g.Graph.Fingerprint()
		fmt.Fprintf(&b, "|g:%x:%d", fp[:], g.Source)
	}
	for _, m := range spec.Models {
		fmt.Fprintf(&b, "|m:%d", int(m))
	}
	for _, f := range spec.Faults {
		fmt.Fprintf(&b, "|f:%d", int(f))
	}
	for _, a := range spec.Adversaries {
		fmt.Fprintf(&b, "|a:%d", int(a))
	}
	for _, a := range spec.Algorithms {
		fmt.Fprintf(&b, "|al:%d", int(a))
	}
	for _, m := range spec.Messages {
		fmt.Fprintf(&b, "|msg:%q", m)
	}
	for _, wc := range spec.WindowCs {
		fmt.Fprintf(&b, "|wc:%016x", math.Float64bits(wc))
	}
	for _, p := range spec.Ps {
		fmt.Fprintf(&b, "|p:%016x", math.Float64bits(p))
	}
	fmt.Fprintf(&b, "|alpha:%016x|rounds:%d|seed:%d|budget:%d:%016x:%016x:%v:%v:%016x",
		math.Float64bits(spec.Alpha), spec.Rounds, spec.Seed,
		spec.Budget.Trials, math.Float64bits(spec.Budget.HalfWidth),
		math.Float64bits(spec.Budget.Target), spec.Budget.UseTarget,
		spec.Budget.AlmostSafe, math.Float64bits(spec.Budget.Z))
	return b.String()
}

// sweepPlan returns the compiled sweep for the spec, reusing a recent
// identical compilation — the plan-LRU sharing /v1/estimate enjoys, at
// sweep granularity. Hits and compiles tick the same plan-cache
// counters (a sweep compile counts once per distinct cell plan).
// psp is the caller's "plan" span (nil-safe), tagged and timed exactly
// like the estimate path's.
func (s *Server) sweepPlan(psp *telemetry.Span, spec faultcast.SweepSpec) (*faultcast.SweepPlan, error) {
	key := sweepKey(spec)
	s.mu.Lock()
	if sp, ok := s.sweeps.get(key); ok {
		s.mu.Unlock()
		s.c.planCacheHits.Add(1)
		psp.SetAttr("source", "cache")
		return sp, nil
	}
	s.mu.Unlock()
	csp := psp.StartChild("compile")
	sp, err := faultcast.CompileSweep(spec)
	csp.End()
	if err != nil {
		return nil, err
	}
	s.c.planCompiles.Add(uint64(sp.PlanCount()))
	psp.SetAttr("source", "compiled")
	psp.SetAttr("distinct_plans", sp.PlanCount())
	s.mu.Lock()
	s.sweeps.put(key, sp, 1)
	s.mu.Unlock()
	return sp, nil
}

// SweepRequest is the body of POST /v1/sweep: the declarative axes of a
// faultcast.SweepSpec plus the per-cell budget. Graphs and Ps are
// required; every other axis defaults to a single element exactly as in
// the library (mp, omission, worst, auto, message "1", derived window).
// The response is NDJSON: one SweepCellResponse line per cell, streamed
// in completion order as the shared worker pool decides each cell, then
// one SweepSummary line.
type SweepRequest struct {
	// Graphs lists graph specs in faultcast.ParseGraph grammar; file:
	// specs are rejected. Source applies to every graph (default 0).
	Graphs []string `json:"graphs"`
	Source int      `json:"source,omitempty"`
	// Ps is the failure-probability axis, each value in [0, 1).
	Ps []float64 `json:"ps"`
	// Axis vocabularies match the /v1/estimate fields of the same names.
	Models      []string `json:"models,omitempty"`
	Faults      []string `json:"faults,omitempty"`
	Adversaries []string `json:"adversaries,omitempty"`
	Algorithms  []string `json:"algorithms,omitempty"`
	// WindowCs is the window-constant axis (0 = derive from p).
	WindowCs []float64 `json:"window_cs,omitempty"`
	// Messages is the source-message axis (default ["1"]).
	Messages []string `json:"messages,omitempty"`
	// Alpha and Rounds apply to every cell, as in /v1/estimate.
	Alpha  float64 `json:"alpha,omitempty"`
	Rounds int     `json:"rounds,omitempty"`
	// Seed is the sweep master seed (default 1); every cell derives its
	// own trial-stream seed from it, so the whole grid is reproducible
	// and each cell is individually cacheable.
	Seed uint64 `json:"seed,omitempty"`
	// Trials is the per-cell budget (default Options.DefaultTrials,
	// capped at Options.MaxTrials); HalfWidth the per-cell precision stop.
	Trials    int     `json:"trials,omitempty"`
	HalfWidth float64 `json:"half_width,omitempty"`
	// AlmostSafeStop stops each cell early once its interval is decided
	// against the cell's almost-safety bound 1 − 1/n — the feasibility-
	// sweep mode, where off-frontier cells cost a few batches each.
	AlmostSafeStop bool `json:"almost_safe_stop,omitempty"`
	// Target, when non-null, stops against this explicit success target
	// instead (AlmostSafeStop wins if both are set).
	Target *float64 `json:"target,omitempty"`
}

// SweepCellResponse is one NDJSON line of a sweep response.
type SweepCellResponse struct {
	// Index is the cell's position in axis cross-product order (graphs
	// outermost, then models, faults, adversaries, algorithms, messages,
	// window_cs, ps innermost); lines stream in completion order, so use
	// Index to reassemble the grid.
	Index int `json:"index"`
	// Key is the cell's canonical key (Config.Fingerprint).
	Key string `json:"key"`
	// The cell's axis coordinates.
	Graph     string  `json:"graph"`
	Source    int     `json:"source"`
	Model     string  `json:"model"`
	Fault     string  `json:"fault"`
	Adversary string  `json:"adversary,omitempty"`
	Algorithm string  `json:"algorithm"`
	Message   string  `json:"message"`
	WindowC   float64 `json:"window_c,omitempty"`
	P         float64 `json:"p"`
	// The estimate, as in EstimateResponse.
	Rate             float64 `json:"rate"`
	Low              float64 `json:"low"`
	High             float64 `json:"high"`
	Trials           int     `json:"trials"`
	Successes        int     `json:"successes"`
	AlmostSafeTarget float64 `json:"almost_safe_target"`
	AlmostSafe       bool    `json:"almost_safe"`
	Rounds           int     `json:"rounds"`
	N                int     `json:"n"`
	// Served: "simulated" (fresh), "refined" (a stored trial prefix
	// topped up by the marginal trials), or "cache" (the stored prefix
	// already decided the cell — zero trials simulated).
	Served          string `json:"served"`
	TrialsSimulated int    `json:"trials_simulated"`
}

// SweepSummary is the final NDJSON line of a sweep response.
type SweepSummary struct {
	Done            bool   `json:"done"`
	Cells           int    `json:"cells"`
	DistinctPlans   int    `json:"distinct_plans"`
	TrialsSimulated int    `json:"trials_simulated"`
	CacheHits       int    `json:"cache_hits"`
	Refined         int    `json:"refined"`
	Error           string `json:"error,omitempty"`
	// TraceID names the sweep's trace (GET /v1/trace/{id}); omitted when
	// tracing is disabled.
	TraceID string `json:"trace_id,omitempty"`
}

// spec validates the request against the server limits and lowers it to a
// SweepSpec. Axis parsing reuses the estimate vocabulary; structural
// errors (unknown enum, oversized graph, out-of-range p) are reported
// before any cell compiles.
func (req *SweepRequest) spec(opts Options) (faultcast.SweepSpec, error) {
	if len(req.Graphs) == 0 {
		return faultcast.SweepSpec{}, badField("graphs", "at least one graph spec is required")
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	spec := faultcast.SweepSpec{
		Alpha:  req.Alpha,
		Rounds: req.Rounds,
		Seed:   seed,
	}
	for _, gs := range req.Graphs {
		if len(gs) > 256 {
			return faultcast.SweepSpec{}, badField("graphs", "graph spec longer than 256 bytes")
		}
		if hasFilePrefix(gs) {
			return faultcast.SweepSpec{}, badField("graphs", "file: graph specs are not served")
		}
		g, err := faultcast.ParseGraph(gs, seed)
		if err != nil {
			return faultcast.SweepSpec{}, badField("graphs", "%v", err)
		}
		if g.N() > opts.MaxNodes {
			return faultcast.SweepSpec{}, &requestError{
				code: "graph-too-large", field: "graphs",
				msg: fmt.Sprintf("graph %q has %d vertices; this server serves at most %d", gs, g.N(), opts.MaxNodes),
			}
		}
		if req.Source < 0 || req.Source >= g.N() {
			return faultcast.SweepSpec{}, badField("source", "source %d out of range [0, %d) on %q", req.Source, g.N(), gs)
		}
		spec.Graphs = append(spec.Graphs, faultcast.SweepGraph{Spec: gs, Graph: g, Source: req.Source})
	}
	if len(req.Ps) == 0 {
		return faultcast.SweepSpec{}, badField("ps", "at least one p is required")
	}
	for _, p := range req.Ps {
		if p < 0 || p >= 1 {
			return faultcast.SweepSpec{}, badField("ps", "p=%v outside [0, 1)", p)
		}
	}
	spec.Ps = req.Ps
	for _, s := range req.Models {
		m, err := faultcast.ParseModel(s)
		if err != nil {
			return faultcast.SweepSpec{}, badField("models", "%v", err)
		}
		spec.Models = append(spec.Models, m)
	}
	for _, s := range req.Faults {
		f, err := faultcast.ParseFault(s)
		if err != nil {
			return faultcast.SweepSpec{}, badField("faults", "%v", err)
		}
		spec.Faults = append(spec.Faults, f)
	}
	for _, s := range req.Adversaries {
		a, err := faultcast.ParseAdversary(s)
		if err != nil {
			return faultcast.SweepSpec{}, badField("adversaries", "%v", err)
		}
		spec.Adversaries = append(spec.Adversaries, a)
	}
	for _, s := range req.Algorithms {
		a, err := faultcast.ParseAlgorithm(s)
		if err != nil {
			return faultcast.SweepSpec{}, badField("algorithms", "%v", err)
		}
		spec.Algorithms = append(spec.Algorithms, a)
	}
	for _, wc := range req.WindowCs {
		if wc < 0 {
			return faultcast.SweepSpec{}, badField("window_cs", "negative window constant %v", wc)
		}
	}
	spec.WindowCs = req.WindowCs
	for _, m := range req.Messages {
		if m == "" {
			return faultcast.SweepSpec{}, badField("messages", "empty message")
		}
	}
	spec.Messages = req.Messages
	if req.Trials < 0 {
		return faultcast.SweepSpec{}, badField("trials", "negative trial count %d", req.Trials)
	}
	if req.HalfWidth < 0 || req.HalfWidth > 0.5 {
		return faultcast.SweepSpec{}, badField("half_width", "half_width=%v outside [0, 0.5]", req.HalfWidth)
	}
	if req.Rounds < 0 {
		return faultcast.SweepSpec{}, badField("rounds", "negative round override %d", req.Rounds)
	}
	trials := req.Trials
	if trials == 0 {
		trials = opts.DefaultTrials
	}
	if trials > opts.MaxTrials {
		trials = opts.MaxTrials
	}
	spec.Budget = faultcast.CellBudget{
		Trials:     trials,
		HalfWidth:  req.HalfWidth,
		AlmostSafe: req.AlmostSafeStop,
	}
	if req.Target != nil && !req.AlmostSafeStop {
		if *req.Target < 0 || *req.Target > 1 {
			return faultcast.SweepSpec{}, badField("target", "target=%v outside [0, 1]", *req.Target)
		}
		spec.Budget.Target = *req.Target
		spec.Budget.UseTarget = true
	}
	return spec, nil
}

// handleSweep streams a sweep as NDJSON. The whole sweep occupies one
// admission slot (it is one schedule on one worker pool, however many
// cells it has); each cell resumes from the tally store by its own
// stream — a stored prefix that decides the cell answers with zero
// simulation, a shorter one is topped up — and every decided cell is
// written and flushed immediately, so clients see the grid fill in as it
// computes.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.c.sweepCalls.Add(1)
	start := time.Now()
	defer func() { s.lat.sweep.Observe(time.Since(start)) }()
	tr := s.tel.StartTrace("sweep")
	defer tr.Finish()
	var req SweepRequest
	if !s.decode(w, r, 1<<20, &req, tr.ID()) {
		return
	}
	spec, err := req.spec(s.opts)
	if err != nil {
		s.reject(w, tr.ID(), err)
		return
	}
	// The size gate is arithmetic (axis-length product), so an oversized
	// grid is rejected before any cell compiles; compilation itself then
	// happens inside the admission slot, bounded like any execution.
	if n := spec.CellCount(); n > s.opts.MaxSweepCells {
		s.reject(w, tr.ID(), &requestError{
			code: "sweep-too-large",
			msg:  fmt.Sprintf("sweep expands to %d cells; this server serves at most %d", n, s.opts.MaxSweepCells),
		})
		return
	}
	if status, refusal := s.admit(r.Context(), tr, estimationRefusals); status != http.StatusOK {
		writeError(w, tr.ID(), status, refusal)
		return
	}
	defer s.release()

	psp := tr.StartSpan("plan")
	sp, err := s.sweepPlan(psp, spec)
	psp.End()
	if err != nil {
		// Compile rejects scenario mismatches validation cannot see
		// (e.g. flooding requested under the radio model).
		s.reject(w, tr.ID(), err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	summary := SweepSummary{Cells: len(sp.Cells()), DistinctPlans: sp.PlanCount(), TraceID: tr.ID()}

	var opts []faultcast.SweepOption
	xsp := tr.StartSpan("execute")
	var agg batchAgg
	if xsp != nil {
		// The span hangs store-replay and per-shard children under the
		// sweep's execution; the probe attributes engine time vs scheduler
		// overhead per decided batch. Both purely observational.
		opts = append(opts, faultcast.WithSweepSpan(xsp), faultcast.WithSweepProbe(agg.observe))
	}
	// Every cell resumes from the tally store's replay, so repeat and
	// topped-up sweeps answer bit-identically to a cold run of their own
	// budget, and, with -store, so does a restarted daemon.
	opts = append(opts, faultcast.WithSweepTallyStore(s.tallies))
	if s.opts.Workers > 0 {
		opts = append(opts, faultcast.WithSweepWorkers(s.opts.Workers))
	}
	if s.opts.Cluster != nil {
		opts = append(opts, faultcast.WithSweepDispatcher(s.opts.Cluster))
	}
	// Emit calls are serialized by the sweep runner, so the encoder and
	// summary tallies need no extra locking.
	runErr := sp.Run(r.Context(), func(res faultcast.CellResult) {
		served, simulated := s.ledger(true, res.Cell.Plan().EstimationCore(), res.Estimate.Trials, res.Resumed)
		switch served {
		case "cache":
			summary.CacheHits++
		case "refined":
			summary.Refined++
		}
		summary.TrialsSimulated += simulated
		s.c.sweepCells.Add(1)
		cfg := res.Cell.Config
		n := cfg.Graph.N()
		_ = enc.Encode(SweepCellResponse{
			Index:            res.Index,
			Key:              res.Cell.Key,
			Graph:            res.Cell.Graph.Spec,
			Source:           cfg.Source,
			Model:            cfg.Model.String(),
			Fault:            cfg.Fault.String(),
			Adversary:        cfg.Adversary.String(),
			Algorithm:        cfg.Algorithm.String(),
			Message:          string(cfg.Message),
			WindowC:          cfg.WindowC,
			P:                cfg.P,
			Rate:             res.Estimate.Rate,
			Low:              res.Estimate.Low,
			High:             res.Estimate.Hi,
			Trials:           res.Estimate.Trials,
			Successes:        res.Estimate.Succeeds,
			AlmostSafeTarget: 1 - 1/float64(n),
			AlmostSafe:       res.Estimate.AlmostSafe(n),
			Rounds:           res.Cell.Rounds(),
			N:                n,
			Served:           served,
			TrialsSimulated:  simulated,
		})
		if flusher != nil {
			flusher.Flush()
		}
	}, opts...)
	agg.annotate(xsp)
	xsp.End()
	tr.Root().SetAttr("cells", len(sp.Cells()))
	tr.Root().SetAttr("trials_simulated", summary.TrialsSimulated)
	tr.Root().SetAttr("cache_hits", summary.CacheHits)
	summary.Done = runErr == nil
	if runErr != nil {
		summary.Error = runErr.Error()
	}
	_ = enc.Encode(summary)
	if flusher != nil {
		flusher.Flush()
	}
}
