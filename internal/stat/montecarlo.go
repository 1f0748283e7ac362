package stat

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Trial is one Monte-Carlo trial: it runs an experiment with the given
// seed and reports success. Trials must be independent and safe to run
// concurrently (each trial derives all randomness from its seed).
type Trial func(seed uint64) bool

// TrialMaker builds the Trial for one worker goroutine. Per-worker mutable
// state — typically a reusable simulation runner whose buffers persist
// across the worker's whole trial stream — lives in the returned closure,
// which is only ever called from that single worker.
type TrialMaker func() Trial

// BlockWidth is the number of trials a TrialBlock can run per call — one
// bit lane per trial in a machine word.
const BlockWidth = 64

// TrialBlock runs up to BlockWidth consecutive trials — seeds baseSeed+0
// .. baseSeed+count-1 — and returns their success verdicts as a bit mask
// (bit i = trial baseSeed+i succeeded; bits >= count are zero). Each
// trial's verdict must be the pure function of its own seed that the
// equivalent Trial computes: callers claim blocks from arbitrary (not
// necessarily aligned) offsets of a seed sequence and mix block and
// per-trial execution freely, relying on bit-identical verdicts.
//
// Like Trial, a TrialBlock may hold reusable per-worker state and is only
// ever called from the single worker that owns it.
type TrialBlock func(baseSeed uint64, count int) uint64

// TrialBlockMaker builds the TrialBlock for one worker goroutine.
type TrialBlockMaker func() TrialBlock

// Estimate runs `trials` independent trials with seeds baseSeed+0,
// baseSeed+1, ... spread across GOMAXPROCS workers, and returns the
// estimated success proportion. Seed assignment is deterministic, so the
// estimate is reproducible regardless of parallelism. The trial function
// is shared by all workers and must be concurrency-safe; use EstimateWith
// when workers need private state.
func Estimate(trials int, baseSeed uint64, trial Trial) Proportion {
	return EstimateWith(trials, baseSeed, 0, func() Trial { return trial })
}

// EstimateWith is Estimate with an explicit worker count and per-worker
// trial state: newTrial is called once per worker, and the resulting Trial
// is used by that worker alone. workers <= 0 selects GOMAXPROCS. The
// estimate depends only on (trials, baseSeed), not on the worker count.
func EstimateWith(trials int, baseSeed uint64, workers int, newTrial TrialMaker) Proportion {
	if trials <= 0 {
		return Proportion{}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var successes atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trial := newTrial()
			for {
				i := next.Add(1) - 1
				if i >= int64(trials) {
					return
				}
				if trial(baseSeed + uint64(i)) {
					successes.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return Proportion{Successes: int(successes.Load()), Trials: trials}
}

// Measure is one numeric Monte-Carlo trial (e.g. broadcast completion
// time); ok=false excludes the trial from the aggregate.
type Measure func(seed uint64) (value float64, ok bool)

// MeanStd runs trials that produce a numeric measurement (e.g. broadcast
// completion time) and returns the sample mean and standard deviation.
// Trials returning ok=false (e.g. failed broadcasts with no completion
// time) are excluded from the aggregate but counted in failed. The measure
// function is shared by all workers and must be concurrency-safe; use
// MeanStdWith when workers need private state.
func MeanStd(trials int, baseSeed uint64, measure Measure) (mean, std float64, failed int) {
	return MeanStdWith(trials, baseSeed, func() Measure { return measure })
}

// MeanStdWith is MeanStd with per-worker measurement state: newMeasure is
// called once per worker, and the resulting Measure is used by that worker
// alone (so it may hold a reusable simulation runner).
func MeanStdWith(trials int, baseSeed uint64, newMeasure func() Measure) (mean, std float64, failed int) {
	var mu sync.Mutex
	var values []float64
	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			measure := newMeasure()
			for {
				i := next.Add(1) - 1
				if i >= int64(trials) {
					return
				}
				if v, ok := measure(baseSeed + uint64(i)); ok {
					mu.Lock()
					values = append(values, v)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	failed = trials - len(values)
	if len(values) == 0 {
		return 0, 0, failed
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean = sum / float64(len(values))
	var ss float64
	for _, v := range values {
		ss += (v - mean) * (v - mean)
	}
	if len(values) > 1 {
		std = math.Sqrt(ss / float64(len(values)-1))
	}
	return mean, std, failed
}
