package faultcast

import (
	"errors"
	"fmt"

	"faultcast/internal/rng"
)

// ProbeVerdict classifies one threshold-search probe.
type ProbeVerdict int

const (
	// ProbeSafe: the probe's 95% Wilson interval sits entirely above the
	// almost-safety target — the scenario is feasible at this p.
	ProbeSafe ProbeVerdict = iota
	// ProbeUnsafe: the interval sits entirely below the target.
	ProbeUnsafe
	// ProbeUndecided: the interval straddles the target after the full
	// trial budget — the probe landed on the threshold frontier.
	ProbeUndecided
)

func (v ProbeVerdict) String() string {
	switch v {
	case ProbeSafe:
		return "safe"
	case ProbeUnsafe:
		return "unsafe"
	case ProbeUndecided:
		return "undecided"
	default:
		return fmt.Sprintf("ProbeVerdict(%d)", int(v))
	}
}

// ThresholdProbe records one bisection step of a ThresholdSearch.
type ThresholdProbe struct {
	P        float64
	Estimate Estimate
	Verdict  ProbeVerdict
}

// ThresholdResult is the outcome of a ThresholdSearch: an empirical
// bracket [Low, High] for the feasibility threshold p̂* of the scenario —
// the largest probed p classified feasible and the smallest classified
// infeasible — to hold against the paper's closed-form Threshold.
type ThresholdResult struct {
	// Low is the largest p whose probe was decided almost-safe (0 if none
	// was); High the smallest decided not-almost-safe (1 if none was).
	// Under correct classifications the scenario's true threshold lies in
	// [Low, High].
	Low, High float64
	// Theory is Threshold(model, fault, Δ) for the scenario — the value
	// the bracket is compared against.
	Theory float64
	// Probes is the bisection history in execution order.
	Probes []ThresholdProbe
	// Converged reports whether the search narrowed the bracket to the
	// requested resolution; false means it stopped on an undecided
	// frontier probe (or the probe budget).
	Converged bool
}

func (r *ThresholdResult) String() string {
	return fmt.Sprintf("p* ∈ [%.6f, %.6f] (theory %.6f, %d probes)",
		r.Low, r.High, r.Theory, len(r.Probes))
}

// Contains reports whether the empirical bracket contains p (inclusive).
func (r *ThresholdResult) Contains(p float64) bool {
	return r.Low <= p && p <= r.High
}

// thresholdMaxProbes caps the number of bisection steps of a search.
const thresholdMaxProbes = 20

// thresholdOptions collects search tuning; see the option constructors.
type thresholdOptions struct {
	trials     int
	resolution float64
	workers    int
}

// ThresholdOption tunes ThresholdSearch.
type ThresholdOption func(*thresholdOptions)

// WithThresholdTrials sets the per-probe trial budget (default 800).
func WithThresholdTrials(n int) ThresholdOption {
	return func(o *thresholdOptions) { o.trials = n }
}

// WithThresholdResolution sets the bracket width at which the search
// stops (default 1/32). Finer resolutions probe closer to the threshold,
// where derived windows — and thus per-trial cost — grow without bound
// for the malicious scenarios; widen the resolution before tightening
// the budget.
func WithThresholdResolution(w float64) ThresholdOption {
	return func(o *thresholdOptions) { o.resolution = w }
}

// WithThresholdWorkers sets the worker count per probe (default
// GOMAXPROCS).
func WithThresholdWorkers(n int) ThresholdOption {
	return func(o *thresholdOptions) { o.workers = n }
}

// ThresholdSearch locates the empirical feasibility threshold of a
// scenario by adaptive bisection on the failure probability p, and
// returns a bracket to compare against the paper's closed-form
// Threshold(model, fault, Δ).
//
// cfg is the scenario template: graph, source, message, model, fault,
// algorithm, adversary, and window policy are taken from it; cfg.P is
// ignored (the search owns that axis) and cfg.Seed is the search's
// master seed, from which every probe derives its own trial-stream seed
// via rng.Derive — so a search is deterministic in (template, options)
// and probes never share streams.
//
// Each probe is a sequential Wilson test at the paper's almost-safety
// target 1 − 1/n: the probe's estimate stops as soon as a 99% interval
// is decided against the target (so far-from-threshold probes cost a
// few batches), and the probe is classified on the reported 95%
// interval — Safe moves the bracket's low edge up, Unsafe moves the
// high edge down, and Undecided means the probe sits on the frontier
// itself, at which point the search stops: narrowing further would
// split an interval the data cannot order.
func ThresholdSearch(cfg Config, opts ...ThresholdOption) (*ThresholdResult, error) {
	if cfg.Graph == nil {
		return nil, errors.New("faultcast: ThresholdSearch needs a graph")
	}
	o := thresholdOptions{trials: 800, resolution: 1.0 / 32}
	for _, f := range opts {
		f(&o)
	}
	if o.trials < 1 || o.resolution <= 0 {
		return nil, fmt.Errorf("faultcast: invalid threshold search options %+v", o)
	}
	res := &ThresholdResult{
		Low:    0,
		High:   1,
		Theory: Threshold(cfg.Model, cfg.Fault, cfg.Graph.MaxDegree()),
	}
	target := 1 - 1/float64(cfg.Graph.N())
	for res.High-res.Low > o.resolution && len(res.Probes) < thresholdMaxProbes {
		mid := (res.Low + res.High) / 2
		probe := cfg
		probe.P = mid
		probe.Trace = nil
		seedless := probe
		seedless.Seed = 0
		plan, err := Compile(probe)
		if err != nil {
			return nil, fmt.Errorf("faultcast: threshold probe p=%v: %w", mid, err)
		}
		estOpts := []EstimateOption{
			WithBaseSeed(rng.Derive(cfg.Seed, "threshold|"+seedless.CanonicalString())),
			WithTarget(target),
		}
		if o.workers > 0 {
			estOpts = append(estOpts, WithWorkers(o.workers))
		}
		est, err := plan.Estimate(o.trials, estOpts...)
		if err != nil {
			return nil, err
		}
		p := ThresholdProbe{P: mid, Estimate: est, Verdict: ProbeUndecided}
		switch {
		case est.Low > target:
			p.Verdict = ProbeSafe
			res.Low = mid
		case est.Hi < target:
			p.Verdict = ProbeUnsafe
			res.High = mid
		}
		res.Probes = append(res.Probes, p)
		if p.Verdict == ProbeUndecided {
			// The frontier itself: the remaining bracket cannot be ordered
			// by more bisection, only by more trials per probe.
			break
		}
	}
	res.Converged = res.High-res.Low <= o.resolution
	return res, nil
}
