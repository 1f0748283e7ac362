package stat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// StopRule configures optional early stopping for a streaming estimate.
// The zero value never stops early (all requested trials run).
//
// Stopping decisions are made on the Wilson interval at Z after every
// batch, so the executed trial count is always a deterministic function of
// (rule, baseSeed, maxTrials) — never of scheduling or worker count.
type StopRule struct {
	// Target, active when UseTarget is set, stops the stream once the
	// interval is decided against it: entirely above (the scenario is
	// almost-safe with confidence) or entirely below (it is not). Threshold
	// sweeps use the paper's almost-safety bound 1 − 1/n here, so points
	// far from the p* frontier stop after a handful of batches.
	Target    float64
	UseTarget bool
	// HalfWidth, when positive, stops the stream once the 95% (z = 1.96)
	// interval half-width shrinks to it — "estimate until this precise".
	// It always reads the 95% band, independent of Z, since it bounds the
	// precision of the reported interval rather than deciding a test.
	HalfWidth float64
	// Z is the interval width used by the target check; zero reads as
	// 1.96 (95%). Stopping is a sequential test: the band is consulted
	// after every batch, so the chance that SOME look is momentarily
	// decided exceeds the band's nominal level. Callers whose downstream
	// verdict reads a z-band should stop on a strictly wider one, as
	// faultcast's requests do: they never leave Z zero with a target set,
	// but fill in 2.576 (faultcast.CellBudget.Z).
	Z float64
	// Batch is the number of trials between stopping checks (default
	// DefaultBatch — a fixed constant, so the executed trial count does
	// not depend on the machine's core count).
	Batch int
}

// DefaultBatch is the stopping-check interval of a StopRule whose Batch
// is unset, and the bucket size tally stores file un-ruled streams under.
const DefaultBatch = 32

// Enabled reports whether the rule can ever stop a stream early.
func (r StopRule) Enabled() bool { return r.UseTarget || r.HalfWidth > 0 }

// BatchSize returns the number of trials between stopping checks: Batch,
// or DefaultBatch when unset.
func (r StopRule) BatchSize() int {
	if r.Batch > 0 {
		return r.Batch
	}
	return DefaultBatch
}

// Done reports whether the estimate so far satisfies the rule.
func (r StopRule) Done(p Proportion) bool {
	if p.Trials == 0 {
		return false
	}
	if r.UseTarget {
		z := r.Z
		if z == 0 {
			z = 1.96
		}
		lo, hi := p.Wilson(z)
		if lo > r.Target || hi < r.Target {
			return true
		}
	}
	if r.HalfWidth > 0 {
		lo, hi := p.Wilson(1.96)
		if (hi-lo)/2 <= r.HalfWidth {
			return true
		}
	}
	return false
}

// EstimateStream runs up to maxTrials independent trials with seeds
// baseSeed+0, baseSeed+1, ... and stops early once rule is satisfied. The
// trials that execute are always the prefix of the seed sequence whose
// length is a multiple of the batch size (or maxTrials), so the returned
// Proportion is reproducible regardless of parallelism.
//
// newTrial is called once per worker; per-worker state persists across all
// batches of the stream. workers <= 0 selects GOMAXPROCS.
func EstimateStream(maxTrials int, baseSeed uint64, workers int, rule StopRule, newTrial TrialMaker) Proportion {
	return EstimateStreamFrom(Proportion{}, maxTrials, baseSeed, workers, rule, newTrial)
}

// EstimateStreamFrom resumes a stream from an earlier estimate: start is
// taken to be the outcome of trials with seeds baseSeed+0 ..
// baseSeed+start.Trials-1, new trials continue the seed sequence at
// baseSeed+start.Trials, and the combined Proportion is returned once it
// satisfies rule or reaches maxTrials total trials. If start already
// satisfies the rule (or start.Trials >= maxTrials), it is returned
// unchanged and no trials run — the "cached estimate already good enough"
// fast path of the serving layer. Resuming is how a cached estimate is
// topped up to a tighter band for only the marginal trial cost.
//
// Resumption preserves the determinism contract: the executed trials are
// always a prefix of the seed sequence, and topping up in several steps
// visits the same seeds as one large run (stopping decisions are made at
// the resumption points in addition to batch boundaries, so a resumed
// stream may stop at start.Trials + k·batch rather than a global batch
// multiple).
func EstimateStreamFrom(start Proportion, maxTrials int, baseSeed uint64, workers int, rule StopRule, newTrial TrialMaker) Proportion {
	p := start
	if p.Trials >= maxTrials || (rule.Enabled() && rule.Done(p)) {
		return p
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > maxTrials-p.Trials {
		workers = maxTrials - p.Trials
	}
	if workers < 1 {
		workers = 1
	}
	if !rule.Enabled() {
		rest := EstimateWith(maxTrials-p.Trials, baseSeed+uint64(p.Trials), workers, newTrial)
		p.Trials += rest.Trials
		p.Successes += rest.Successes
		return p
	}
	batch := rule.BatchSize()
	if workers > batch {
		workers = batch // a batch can't occupy more workers than trials
	}
	trials := make([]Trial, workers)
	for w := range trials {
		trials[w] = newTrial()
	}
	for {
		b := batch
		if rest := maxTrials - p.Trials; b > rest {
			b = rest
		}
		end := int64(p.Trials + b)
		var next, succ atomic.Int64
		next.Store(int64(p.Trials))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(trial Trial) {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= end {
						return
					}
					if trial(baseSeed + uint64(i)) {
						succ.Add(1)
					}
				}
			}(trials[w])
		}
		wg.Wait()
		p.Trials += b
		p.Successes += int(succ.Load())
		if p.Trials >= maxTrials || rule.Done(p) {
			return p
		}
	}
}
