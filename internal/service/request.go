package service

import (
	"fmt"
	"strings"

	"faultcast"
)

// EstimateRequest is the body of POST /v1/estimate. Graph and P are
// required; everything else has the CLI's defaults. The pair
// (Trials, HalfWidth) states the caller's confidence requirement: run at
// most Trials trials, and stop early once the 95% Wilson half-width
// shrinks to HalfWidth (0 = no precision target, run exactly Trials).
type EstimateRequest struct {
	// Graph is a graph spec in faultcast.ParseGraph grammar, e.g.
	// "grid:8x8", "line:64", "layered:6". file: specs are rejected — the
	// service never touches the local filesystem on behalf of a request.
	Graph string `json:"graph"`
	// Source is the broadcasting node (default 0).
	Source int `json:"source,omitempty"`
	// Message is the source message (default "1").
	Message string `json:"message,omitempty"`
	// Model is "mp" (default) or "radio".
	Model string `json:"model,omitempty"`
	// Fault is "omission" (default), "malicious", or "limited".
	Fault string `json:"fault,omitempty"`
	// P is the per-step transmitter failure probability in [0, 1).
	P float64 `json:"p"`
	// Algorithm is "auto" (default) or a concrete algorithm name.
	Algorithm string `json:"algorithm,omitempty"`
	// Adversary is "worst" (default), "crash", "flip", or "noise".
	Adversary string `json:"adversary,omitempty"`
	// WindowC overrides the window constant (0 = derive from P).
	WindowC float64 `json:"window_c,omitempty"`
	// Alpha is the Theorem 3.2 exponent for the composed algorithm.
	Alpha float64 `json:"alpha,omitempty"`
	// Seed is the base seed of the trial stream (default 1). The seed is
	// part of the cache key: distinct seeds are distinct computations.
	Seed uint64 `json:"seed,omitempty"`
	// Rounds overrides the round horizon (0 = the algorithm's own).
	Rounds int `json:"rounds,omitempty"`
	// Trials is the trial budget (default Options.DefaultTrials). A
	// budget above Options.MaxTrials is clamped to it, never rejected —
	// and the clamp is echoed, not silent: the response then carries
	// clamped=true and trials_requested alongside the effective budget
	// in its trials field.
	Trials int `json:"trials,omitempty"`
	// HalfWidth, when positive, stops the stream once the 95% interval
	// half-width reaches it — and lets the server reuse any cached
	// estimate already at least that precise without simulating.
	HalfWidth float64 `json:"half_width,omitempty"`
}

// EstimateResponse is the body of a successful POST /v1/estimate.
type EstimateResponse struct {
	// Key is the canonical key (Config.Fingerprint) of the request.
	Key string `json:"key"`
	// Rate, Low, High: the point estimate and its 95% Wilson interval.
	Rate float64 `json:"rate"`
	Low  float64 `json:"low"`
	High float64 `json:"high"`
	// HalfWidth is (High-Low)/2, the achieved precision.
	HalfWidth float64 `json:"half_width"`
	// Trials and Successes are the totals behind the estimate (including
	// cached trials the request did not pay for).
	Trials    int `json:"trials"`
	Successes int `json:"successes"`
	// AlmostSafeTarget is 1 − 1/n for the request's graph; AlmostSafe
	// reports whether the interval reaches it.
	AlmostSafeTarget float64 `json:"almost_safe_target"`
	Almostsafe       bool    `json:"almost_safe"`
	// Rounds is the compiled round horizon; N the vertex count.
	Rounds int `json:"rounds"`
	N      int `json:"n"`
	// Core names the estimation engine the plan selects for this scenario
	// ("lanes", "bitset", "scalar", or "concurrent"). Cached and coalesced
	// answers echo the core the plan simulates on.
	Core string `json:"core"`
	// Served says how the answer was produced: "simulated" (fresh run),
	// "refined" (a stored trial prefix topped up), "cache" (the stored
	// prefix already decided the request — zero trials simulated), or
	// "coalesced" (this request rode an identical in-flight one).
	Served string `json:"served"`
	// TrialsSimulated is the number of trials executed to serve THIS
	// request: 0 for "cache" and "coalesced" answers, the marginal top-up
	// for "refined" ones.
	TrialsSimulated int `json:"trials_simulated"`
	// Clamped reports that the requested trial budget exceeded the
	// server's MaxTrials and was reduced; TrialsRequested then echoes the
	// budget the caller asked for (the effective budget is in Trials /
	// the /v1/scenarios limits). Both are omitted when no clamp happened.
	Clamped         bool `json:"clamped,omitempty"`
	TrialsRequested int  `json:"trials_requested,omitempty"`
	// TraceID names this request's trace, retrievable at
	// GET /v1/trace/{id} while the server still retains it. Omitted when
	// tracing is disabled (faultcastd -trace-ring=-1).
	TraceID string `json:"trace_id,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	// Error is a human-readable message; Code a stable machine-readable
	// slug ("bad-json", "bad-request", "graph-too-large", "overloaded",
	// "not-found", "method-not-allowed").
	Error string `json:"error"`
	Code  string `json:"code"`
	// Field names the offending request field, when one is identifiable.
	Field string `json:"field,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429 answers.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// TraceID names the failing request's trace, when tracing is enabled
	// and the failure happened late enough to have one.
	TraceID string `json:"trace_id,omitempty"`
}

// requestError carries a structured validation failure to the handler.
type requestError struct {
	code  string
	field string
	msg   string
}

func (e *requestError) Error() string { return e.msg }

func badField(field, format string, args ...any) *requestError {
	return &requestError{code: "bad-request", field: field, msg: fmt.Sprintf(format, args...)}
}

// config validates the request against the server limits and lowers it to
// a faultcast.Config plus the effective trial budget.
func (req *EstimateRequest) config(opts Options) (faultcast.Config, int, error) {
	if req.Graph == "" {
		return faultcast.Config{}, 0, badField("graph", "graph spec is required")
	}
	if len(req.Graph) > 256 {
		return faultcast.Config{}, 0, badField("graph", "graph spec longer than 256 bytes")
	}
	if hasFilePrefix(req.Graph) {
		return faultcast.Config{}, 0, badField("graph", "file: graph specs are not served")
	}
	// Resolve the seed default before parsing: random graph families
	// (gnp, randtree) are deterministic in the seed, so "no seed" and
	// "seed 1" must name the same topology.
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	g, err := faultcast.ParseGraph(req.Graph, seed)
	if err != nil {
		return faultcast.Config{}, 0, badField("graph", "%v", err)
	}
	if g.N() > opts.MaxNodes {
		return faultcast.Config{}, 0, &requestError{
			code: "graph-too-large", field: "graph",
			msg: fmt.Sprintf("graph has %d vertices; this server serves at most %d", g.N(), opts.MaxNodes),
		}
	}
	if req.P < 0 || req.P >= 1 {
		return faultcast.Config{}, 0, badField("p", "p=%v outside [0, 1)", req.P)
	}
	if req.HalfWidth < 0 || req.HalfWidth > 0.5 {
		return faultcast.Config{}, 0, badField("half_width", "half_width=%v outside [0, 0.5]", req.HalfWidth)
	}
	if req.Trials < 0 {
		return faultcast.Config{}, 0, badField("trials", "negative trial count %d", req.Trials)
	}
	trials := req.Trials
	if trials == 0 {
		trials = opts.DefaultTrials
	}
	if trials > opts.MaxTrials {
		trials = opts.MaxTrials
	}
	cfg := faultcast.Config{
		Graph:   g,
		Source:  req.Source,
		Message: []byte(req.Message),
		P:       req.P,
		WindowC: req.WindowC,
		Alpha:   req.Alpha,
		Seed:    seed,
		Rounds:  req.Rounds,
	}
	if req.Message == "" {
		cfg.Message = []byte("1")
	}
	if cfg.Model, err = faultcast.ParseModel(req.Model); err != nil {
		return faultcast.Config{}, 0, badField("model", "%v", err)
	}
	if cfg.Fault, err = faultcast.ParseFault(req.Fault); err != nil {
		return faultcast.Config{}, 0, badField("fault", "%v", err)
	}
	if cfg.Algorithm, err = faultcast.ParseAlgorithm(req.Algorithm); err != nil {
		return faultcast.Config{}, 0, badField("algorithm", "%v", err)
	}
	if cfg.Adversary, err = faultcast.ParseAdversary(req.Adversary); err != nil {
		return faultcast.Config{}, 0, badField("adversary", "%v", err)
	}
	if cfg.Source < 0 || cfg.Source >= g.N() {
		return faultcast.Config{}, 0, badField("source", "source %d out of range [0, %d)", cfg.Source, g.N())
	}
	if req.Rounds < 0 {
		return faultcast.Config{}, 0, badField("rounds", "negative round override %d", req.Rounds)
	}
	return cfg, trials, nil
}

// hasFilePrefix matches the same leniency ParseGraph applies (trimmed,
// case-insensitive) so a file: spec can't sneak past the gate.
func hasFilePrefix(spec string) bool {
	return strings.HasPrefix(strings.ToLower(strings.TrimSpace(spec)), "file:")
}
