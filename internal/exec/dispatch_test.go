package exec

import (
	"context"
	"testing"

	"faultcast/internal/stat"
)

// synthTrial mirrors the deterministic hash trial of the stat tests.
func synthTrial(threshold uint64) stat.Trial {
	return func(seed uint64) bool {
		z := seed + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z^(z>>31) < threshold
	}
}

// shardTally is the shard primitive as the cluster drives it: an
// un-ruled bucketed cell over trials [0, trials) tallied on the pool.
func shardTally(workers int, baseSeed uint64, trials, batch int, newTrial stat.TrialMaker, newBlock stat.TrialBlockMaker) stat.Tally {
	return TallyCell(workers, Cell{MaxTrials: trials, BaseSeed: baseSeed, Bucket: batch, NewTrial: newTrial, NewBlock: newBlock})
}

// TestRunShardWorkerCountIndependent pins the shard primitive's
// determinism: identical tallies for 1, 3, and 16 workers, including a
// ragged final bucket.
func TestRunShardWorkerCountIndependent(t *testing.T) {
	maker := func() stat.Trial { return synthTrial(1 << 63) }
	want := shardTally(1, 1000, 100, 32, maker, nil)
	if err := want.Check(); err != nil {
		t.Fatalf("reference tally invalid: %v", err)
	}
	if len(want.Successes) != 4 {
		t.Fatalf("100 trials / batch 32: %d buckets", len(want.Successes))
	}
	for _, workers := range []int{3, 16, 0} {
		got := shardTally(workers, 1000, 100, 32, maker, nil)
		if got.Trials != want.Trials || got.Batch != want.Batch {
			t.Fatalf("workers=%d: shape %+v, want %+v", workers, got, want)
		}
		for i := range want.Successes {
			if got.Successes[i] != want.Successes[i] {
				t.Fatalf("workers=%d: bucket %d = %d, want %d", workers, i, got.Successes[i], want.Successes[i])
			}
		}
	}
}

// TestRunShardMatchesSequentialLoop: buckets must count exactly the
// trials a plain loop over the seed range counts.
func TestRunShardMatchesSequentialLoop(t *testing.T) {
	trial := synthTrial(1 << 62)
	const base, trials, batch = 77, 90, 25
	want := make([]int, 4)
	for i := 0; i < trials; i++ {
		if trial(base + uint64(i)) {
			want[i/batch]++
		}
	}
	got := shardTally(4, base, trials, batch, func() stat.Trial { return trial }, nil)
	for i := range want {
		if got.Successes[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (tally %+v)", i, got.Successes[i], want[i], got)
		}
	}
}

func TestRunShardDegenerate(t *testing.T) {
	maker := func() stat.Trial { return synthTrial(1 << 63) }
	if got := shardTally(4, 0, 0, 32, maker, nil); got.Trials != 0 || len(got.Successes) != 0 {
		t.Fatalf("zero-trial shard: %+v", got)
	}
	// batch <= 0 buckets the whole shard as one.
	got := shardTally(4, 5, 40, 0, maker, nil)
	if got.Batch != 40 || len(got.Successes) != 1 {
		t.Fatalf("unbatched shard: %+v", got)
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestLocalDispatcherIsRun: the Local dispatcher is Run verbatim.
func TestLocalDispatcherIsRun(t *testing.T) {
	cells := []Cell{{
		MaxTrials: 256,
		BaseSeed:  42,
		Rule:      stat.StopRule{HalfWidth: 0.02},
		NewTrial:  func() stat.Trial { return synthTrial(1 << 61) },
	}}
	var direct, viaLocal stat.Proportion
	if err := Run(context.Background(), 4, cells, func(_ int, p stat.Proportion) { direct = p }); err != nil {
		t.Fatal(err)
	}
	if err := (Local{}).Run(context.Background(), 4, cells, func(_ int, p stat.Proportion) { viaLocal = p }); err != nil {
		t.Fatal(err)
	}
	if direct != viaLocal {
		t.Fatalf("Local %+v != Run %+v", viaLocal, direct)
	}
}

// synthBlock is the block-trial twin of synthTrial: same per-seed verdict,
// packed 64 lanes to the word.
func synthBlock(threshold uint64) stat.TrialBlock {
	trial := synthTrial(threshold)
	return func(baseSeed uint64, count int) uint64 {
		var word uint64
		for i := 0; i < count; i++ {
			if trial(baseSeed + uint64(i)) {
				word |= 1 << uint(i)
			}
		}
		return word
	}
}

// TestRunShardBlocksMatchesRunShard pins the shard primitive's block path
// to its per-trial path bucket for bucket, including batch sizes that are not
// multiples of the block width (so verdict words straddle buckets) and
// ragged final blocks.
func TestRunShardBlocksMatchesRunShard(t *testing.T) {
	newTrial := func() stat.Trial { return synthTrial(1 << 62) }
	newBlock := func() stat.TrialBlock { return synthBlock(1 << 62) }
	cases := []struct{ trials, batch int }{
		{1, 0}, {70, 1}, {70, 7}, {150, 48}, {128, 64}, {333, 100}, {64, 0},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3, 8} {
			want := shardTally(workers, 99, c.trials, c.batch, newTrial, nil)
			got := shardTally(workers, 99, c.trials, c.batch, newTrial, newBlock)
			if got.Trials != want.Trials || got.Batch != want.Batch {
				t.Fatalf("trials=%d batch=%d workers=%d: shape %+v vs %+v", c.trials, c.batch, workers, got, want)
			}
			for i := range want.Successes {
				if got.Successes[i] != want.Successes[i] {
					t.Fatalf("trials=%d batch=%d workers=%d bucket %d: blocks=%d per-trial=%d",
						c.trials, c.batch, workers, i, got.Successes[i], want.Successes[i])
				}
			}
		}
	}
}
