package exec

import (
	"context"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

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

// RunShard executes trials [0, trials) with seeds baseSeed+0 ..
// baseSeed+trials-1 on a private pool of `workers` goroutines (<= 0 means
// GOMAXPROCS) and tallies successes per batch-sized bucket — the
// worker-side primitive of the cluster shard protocol, also used by the
// coordinator's local-failover path. batch <= 0 buckets the whole shard
// as one.
//
// The tally is a pure function of (newTrial, baseSeed, trials, batch):
// bucket membership is fixed by trial index and addition commutes, so
// neither the worker count nor scheduling order can change a bucket.
// There is deliberately no stopping rule here — a shard cannot know the
// merged prefix it will land in, so stop decisions belong exclusively to
// the coordinator, which folds the merged buckets through a stat.Fold.
func RunShard(workers int, baseSeed uint64, trials, batch int, newTrial stat.TrialMaker) stat.Tally {
	if trials <= 0 {
		return stat.Tally{}
	}
	if batch <= 0 || batch > trials {
		batch = trials
	}
	t := stat.Tally{Trials: trials, Batch: batch}
	buckets := make([]atomic.Int64, (trials+batch-1)/batch)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trial := newTrial()
			for {
				i := int(next.Add(1) - 1)
				if i >= trials {
					return
				}
				if trial(baseSeed + uint64(i)) {
					buckets[i/batch].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	t.Successes = make([]int, len(buckets))
	for i := range buckets {
		t.Successes[i] = int(buckets[i].Load())
	}
	return t
}

// RunShardBlocks is RunShard for block trials: the same shard tally —
// bucket membership fixed by trial index — computed with trials claimed
// in stat.BlockWidth-sized chunks and each block's verdict word split
// across the bucket boundaries it straddles. Because a TrialBlock's
// verdicts are bit-identical to the per-trial ones over the same seeds,
// the returned Tally equals RunShard's exactly.
func RunShardBlocks(workers int, baseSeed uint64, trials, batch int, newBlock stat.TrialBlockMaker) stat.Tally {
	if trials <= 0 {
		return stat.Tally{}
	}
	if batch <= 0 || batch > trials {
		batch = trials
	}
	t := stat.Tally{Trials: trials, Batch: batch}
	buckets := make([]atomic.Int64, (trials+batch-1)/batch)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (trials + stat.BlockWidth - 1) / stat.BlockWidth; workers > max {
		workers = max
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			block := newBlock()
			for {
				i := int(next.Add(stat.BlockWidth) - stat.BlockWidth)
				if i >= trials {
					return
				}
				k := trials - i
				if k > stat.BlockWidth {
					k = stat.BlockWidth
				}
				word := block(baseSeed+uint64(i), k)
				// Split the verdict word across the buckets it spans.
				for off := 0; off < k; {
					b := (i + off) / batch
					lim := (b+1)*batch - i
					if lim > k {
						lim = k
					}
					mask := ^uint64(0)
					if lim < 64 {
						mask = 1<<uint(lim) - 1
					}
					mask &^= 1<<uint(off) - 1
					buckets[b].Add(int64(bits.OnesCount64(word & mask)))
					off = lim
				}
			}
		}()
	}
	wg.Wait()
	t.Successes = make([]int, len(buckets))
	for i := range buckets {
		t.Successes[i] = int(buckets[i].Load())
	}
	return t
}
