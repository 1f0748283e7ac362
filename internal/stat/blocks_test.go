package stat_test

import (
	"context"
	"testing"

	"faultcast/internal/exec"
	"faultcast/internal/stat"
)

// The block-trial estimators live in exec.Run, which claims stat.BlockWidth
// seeds per call when a cell has a NewBlock. These tests check that
// estimating through blocks gives exactly the Proportion of the per-trial
// estimators in this package, which stay the oracle.

// verdict is the shared deterministic per-seed oracle the block and
// per-trial fakes both compute, so any disagreement between the two
// estimator families is a harness bug, not a trial bug.
func verdict(seed uint64) bool {
	x := seed * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return x%5 < 2
}

func fakeTrial() stat.Trial {
	return func(seed uint64) bool { return verdict(seed) }
}

func fakeBlock() stat.TrialBlock {
	return func(baseSeed uint64, count int) uint64 {
		var word uint64
		for i := 0; i < count; i++ {
			if verdict(baseSeed + uint64(i)) {
				word |= 1 << uint(i)
			}
		}
		return word
	}
}

// estimateBlocks runs one block-claiming cell on the exec pool.
func estimateBlocks(t *testing.T, start stat.Proportion, maxTrials int, baseSeed uint64, workers int, rule stat.StopRule) stat.Proportion {
	t.Helper()
	cells := []exec.Cell{{
		MaxTrials: maxTrials, BaseSeed: baseSeed, Start: start, Rule: rule,
		NewTrial: fakeTrial, NewBlock: fakeBlock,
	}}
	var got stat.Proportion
	if err := exec.Run(context.Background(), workers, cells, func(_ int, p stat.Proportion) { got = p }); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestEstimateWithBlocksMatchesPerTrial(t *testing.T) {
	// Trial counts straddling block boundaries: sub-block, exact multiples,
	// and ragged tails.
	for _, trials := range []int{1, 7, 63, 64, 65, 128, 130, 1000} {
		want := stat.EstimateWith(trials, 42, 4, fakeTrial)
		got := estimateBlocks(t, stat.Proportion{}, trials, 42, 4, stat.StopRule{})
		if got != want {
			t.Fatalf("trials=%d: blocks %+v, per-trial %+v", trials, got, want)
		}
	}
}

func TestEstimateStreamFromBlocksMatchesPerTrial(t *testing.T) {
	rules := []stat.StopRule{
		{}, // disabled: straight run
		{Target: 0.4, UseTarget: true, Batch: 10},        // batches smaller than a block
		{Target: 0.4, UseTarget: true, Batch: 100},       // batches straddling blocks
		{HalfWidth: 0.001, Batch: 64},                    // unreachable: runs to maxTrials
		{Target: 0.4, UseTarget: true, Z: 30, Batch: 48}, // wide band: never decided
	}
	starts := []stat.Proportion{{}, {Trials: 37, Successes: 11}}
	for _, rule := range rules {
		for _, start := range starts {
			want := stat.EstimateStreamFrom(start, 500, 7, 3, rule, fakeTrial)
			got := estimateBlocks(t, start, 500, 7, 3, rule)
			if got != want {
				t.Fatalf("rule=%+v start=%+v: blocks %+v, per-trial %+v", rule, start, got, want)
			}
		}
	}
}
