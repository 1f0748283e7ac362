package exec

import (
	"context"

	"faultcast/internal/stat"
)

// Dispatcher abstracts where a schedule of estimation cells executes: the
// in-process worker pool (Local) or a fleet of remote workers behind a
// cluster coordinator. Plan.Estimate and SweepPlan.Run are written
// against this interface, so the two are interchangeable — and because
// every implementation must honor the batch-boundary determinism
// contract, switching dispatchers can never change a result bit, only
// where the trials burn CPU.
//
// Implementations must mirror Run's semantics exactly: onDone called
// once per completed cell, serialized, in completion order, from
// whatever goroutine finished the cell; on ctx cancellation undecided
// cells are abandoned unreported and ctx.Err() is returned.
type Dispatcher interface {
	Run(ctx context.Context, workers int, cells []Cell, onDone func(i int, p stat.Proportion)) error
}

// Local is the in-process Dispatcher: the bounded work-stealing pool of
// Run, unchanged. It is the zero-configuration default everywhere a
// dispatcher is accepted.
type Local struct{}

// Run implements Dispatcher on the in-process pool.
func (Local) Run(ctx context.Context, workers int, cells []Cell, onDone func(i int, p stat.Proportion)) error {
	return Run(ctx, workers, cells, onDone)
}

// TallyCell runs an un-ruled cell over trials [0, MaxTrials) — seeds
// BaseSeed+0 .. BaseSeed+MaxTrials-1 — on the shared pool of Run and
// returns the per-bucket success tally, bucketed at c.Bucket (<= 0
// tallies the whole cell as one bucket). It is the worker side of the
// cluster shard protocol (Plan.TallyShard) and the coordinator's local
// failover; c.Start, c.Rule and c.OnBatch are overridden.
//
// The tally is a pure function of (trial makers, BaseSeed, MaxTrials,
// Bucket): bucket membership is fixed by trial index and addition
// commutes, so neither the worker count, scheduling order, nor the
// choice between NewTrial and NewBlock can change a bucket. There is
// deliberately no stopping rule here — a shard cannot know the merged
// prefix it will land in, so stop decisions belong exclusively to the
// coordinator, which folds the merged buckets through a stat.Fold.
func TallyCell(workers int, c Cell) stat.Tally {
	if c.MaxTrials <= 0 {
		return stat.Tally{}
	}
	t := stat.Tally{Trials: c.MaxTrials, Batch: c.Bucket}
	if t.Batch <= 0 || t.Batch > t.Trials {
		t.Batch = t.Trials
	}
	c.Start, c.Rule, c.Bucket = stat.Proportion{}, stat.StopRule{}, t.Batch
	c.OnBatch = func(_, successes int) { t.Successes = append(t.Successes, successes) }
	EstimateCell(workers, c)
	return t
}
