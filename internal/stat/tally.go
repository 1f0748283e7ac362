package stat

import "fmt"

// Tally is the mergeable raw outcome of one shard of a trial stream:
// success counts bucketed by the stop-rule batch, in trial order. It is
// the unit of result the cluster layer moves between machines — a worker
// executes a shard's full trial range with no stopping rule of its own
// (it cannot know the merged prefix) and returns the per-batch counts;
// the coordinator concatenates tallies in shard order and folds their
// buckets through a Fold, discarding those past the deciding one.
//
// Bucketing at batch granularity, rather than one count per shard, is
// what preserves the single-process determinism contract: the
// concatenated bucket sequence of a sharded run is exactly the batch
// sequence a local EstimateStreamFrom would have produced, so the
// folded stop decisions — and therefore the executed trial count and
// the final Proportion — are bit-identical, no matter how many machines
// ran the shards or in what order they finished.
type Tally struct {
	// Trials is the number of trials the shard executed.
	Trials int
	// Batch is the bucket granularity: Successes[i] counts the successes
	// among trials [i*Batch, min((i+1)*Batch, Trials)) of the shard.
	Batch int
	// Successes has ceil(Trials/Batch) entries.
	Successes []int
}

// Total returns the shard's summed success count.
func (t Tally) Total() int {
	sum := 0
	for _, s := range t.Successes {
		sum += s
	}
	return sum
}

// Check validates internal consistency — bucket count and per-bucket
// bounds. The coordinator runs it on every tally a remote worker returns,
// so a malformed or corrupted response is treated as a worker failure
// rather than silently folded into an estimate.
func (t Tally) Check() error {
	if t.Trials < 0 {
		return fmt.Errorf("stat: tally with %d trials", t.Trials)
	}
	if t.Trials == 0 {
		if len(t.Successes) != 0 {
			return fmt.Errorf("stat: empty tally with %d buckets", len(t.Successes))
		}
		return nil
	}
	if t.Batch <= 0 {
		return fmt.Errorf("stat: tally with batch %d", t.Batch)
	}
	want := (t.Trials + t.Batch - 1) / t.Batch
	if len(t.Successes) != want {
		return fmt.Errorf("stat: tally with %d buckets, want %d (%d trials / batch %d)",
			len(t.Successes), want, t.Trials, t.Batch)
	}
	for i, s := range t.Successes {
		size := t.Batch
		if last := t.Trials - i*t.Batch; last < size {
			size = last
		}
		if s < 0 || s > size {
			return fmt.Errorf("stat: tally bucket %d has %d successes of %d trials", i, s, size)
		}
	}
	return nil
}

// Fold is the batch-boundary stop-rule fold: the running estimate of one
// trial stream, checked against its budget and stopping rule only when a
// whole batch is added. The scheduler, the cluster merge and tally-store
// replay all fold through it, so each makes the stop decision at the
// same boundary with the same totals — the reason a local, sharded or
// store-resumed stream ends on bit-identical results.
//
// Batches are Rule.BatchSize() trials when the rule is enabled, the last
// one clipped to the budget. An un-ruled stream has no decisions to make
// and folds its whole remaining budget as one batch.
type Fold struct {
	P    Proportion // totals through the last added batch, start included
	Max  int        // trial budget, P's start included
	Rule StopRule
}

// Done reports whether the stream is decided: budget reached, or the
// rule satisfied.
func (f *Fold) Done() bool {
	return f.P.Trials >= f.Max || (f.Rule.Enabled() && f.Rule.Done(f.P))
}

// Next returns the size of the next batch. It is only meaningful while
// the stream is not Done.
func (f *Fold) Next() int {
	rest := f.Max - f.P.Trials
	if !f.Rule.Enabled() {
		return rest
	}
	return min(f.Rule.BatchSize(), rest)
}

// Add folds in one batch's trial and success counts and reports whether
// the stream is now decided.
func (f *Fold) Add(trials, successes int) bool {
	f.P.Trials += trials
	f.P.Successes += successes
	return f.Done()
}
