package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"faultcast/internal/rng"
	"faultcast/internal/stat"
)

// fakeTrial is a deterministic seed-driven trial with success rate p and a
// tunable amount of busywork, shared by every test below.
func fakeTrial(p float64) stat.Trial {
	return func(seed uint64) bool {
		return rng.New(seed).Float64() < p
	}
}

// TestRunMatchesEstimateStream: for a mix of rules, budgets, and resume
// points, every cell scheduled on the shared pool must produce exactly the
// Proportion stat.EstimateStreamFrom computes for the same parameters.
func TestRunMatchesEstimateStream(t *testing.T) {
	type cse struct {
		max   int
		seed  uint64
		start stat.Proportion
		rule  stat.StopRule
		p     float64
	}
	cases := []cse{
		{max: 500, seed: 1, p: 0.5}, // no rule: full sample
		{max: 2000, seed: 2, p: 0.95, rule: stat.StopRule{UseTarget: true, Target: 0.5, Z: 2.6}}, // early stop, decided above
		{max: 2000, seed: 3, p: 0.05, rule: stat.StopRule{UseTarget: true, Target: 0.5, Z: 2.6}}, // early stop, decided below
		{max: 4000, seed: 4, p: 0.3, rule: stat.StopRule{HalfWidth: 0.05}},                       // precision stop
		{max: 300, seed: 5, p: 0.7, start: stat.Proportion{Successes: 60, Trials: 100}},          // resumed
		{max: 100, seed: 6, p: 0.7, start: stat.Proportion{Successes: 100, Trials: 100}},         // already exhausted
		{max: 1000, seed: 7, p: 1.0, start: stat.Proportion{Successes: 64, Trials: 64},
			rule: stat.StopRule{UseTarget: true, Target: 0.5, Z: 2.6}}, // start already satisfies rule
		{max: 50, seed: 8, p: 0.5, rule: stat.StopRule{UseTarget: true, Target: 0.5, Z: 2.6, Batch: 7}}, // odd batch
	}
	want := make([]stat.Proportion, len(cases))
	cells := make([]Cell, len(cases))
	for i, c := range cases {
		c := c
		want[i] = stat.EstimateStreamFrom(c.start, c.max, c.seed, 3, c.rule,
			func() stat.Trial { return fakeTrial(c.p) })
		cells[i] = Cell{
			MaxTrials: c.max, BaseSeed: c.seed, Start: c.start, Rule: c.rule,
			NewTrial: func() stat.Trial { return fakeTrial(c.p) },
		}
	}
	for _, workers := range []int{1, 2, 7} {
		got := make([]stat.Proportion, len(cases))
		calls := make([]int, len(cases))
		if err := Run(context.Background(), workers, cells, func(i int, p stat.Proportion) {
			got[i] = p
			calls[i]++
		}); err != nil {
			t.Fatal(err)
		}
		for i := range cases {
			if calls[i] != 1 {
				t.Fatalf("workers=%d cell %d: onDone called %d times", workers, i, calls[i])
			}
			if got[i] != want[i] {
				t.Fatalf("workers=%d cell %d: shared pool %+v != stream %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRunBlocksMatchTrials: block claiming must be invisible in every
// result — the same batches folded, the same stop decisions, the same
// Proportion as per-trial claiming and as stat.EstimateStreamFrom — for
// starts that are not block- or batch-aligned, budgets that end mid-block
// or mid-batch, and un-ruled cells with and without observation buckets.
func TestRunBlocksMatchTrials(t *testing.T) {
	const threshold = 3 << 62 // ≈ 0.75 success rate
	rules := map[string]stat.StopRule{
		"none":      {},
		"target":    {UseTarget: true, Target: 0.6, Z: 2.576},
		"halfwidth": {HalfWidth: 0.08},
	}
	type cse struct {
		name string
		cell Cell
	}
	var cases []cse
	for name, rule := range rules {
		for _, start := range []stat.Proportion{{}, {Successes: 5, Trials: 7}} {
			for _, budget := range []int{1, 31, 33, 200, 1000} {
				for _, bucket := range []int{0, 32} {
					cases = append(cases, cse{
						name: fmt.Sprintf("%s/start=%d/max=%d/bucket=%d", name, start.Trials, budget, bucket),
						cell: Cell{MaxTrials: budget, BaseSeed: 11, Start: start, Rule: rule, Bucket: bucket},
					})
				}
			}
		}
	}
	newTrial := func() stat.Trial { return synthTrial(threshold) }
	newBlock := func() stat.TrialBlock { return synthBlock(threshold) }
	run := func(workers int, blocks bool) ([]stat.Proportion, [][][2]int) {
		cells := make([]Cell, len(cases))
		batches := make([][][2]int, len(cases))
		for i, c := range cases {
			i := i
			cells[i] = c.cell
			cells[i].NewTrial = newTrial
			if blocks {
				cells[i].NewBlock = newBlock
			}
			cells[i].OnBatch = func(trials, successes int) {
				batches[i] = append(batches[i], [2]int{trials, successes})
			}
		}
		got := make([]stat.Proportion, len(cases))
		if err := Run(context.Background(), workers, cells, func(i int, p stat.Proportion) { got[i] = p }); err != nil {
			t.Fatal(err)
		}
		return got, batches
	}
	for _, workers := range []int{1, 3} {
		trialP, trialB := run(workers, false)
		blockP, blockB := run(workers, true)
		for i, c := range cases {
			want := stat.EstimateStreamFrom(c.cell.Start, c.cell.MaxTrials, c.cell.BaseSeed, workers, c.cell.Rule, newTrial)
			if trialP[i] != want || blockP[i] != want {
				t.Errorf("workers=%d %s: trials %+v, blocks %+v, stream %+v", workers, c.name, trialP[i], blockP[i], want)
			}
			if fmt.Sprint(trialB[i]) != fmt.Sprint(blockB[i]) {
				t.Errorf("workers=%d %s: batches differ: trials %v, blocks %v", workers, c.name, trialB[i], blockB[i])
			}
		}
	}
}

// TestRunBucketedBlocksFullWidth: an un-ruled cell with observation
// buckets runs its budget as one batch, so block claims stay
// stat.BlockWidth wide however small the bucket, and each verdict word
// is split across the buckets it spans — OnBatch sees exactly the
// buckets per-trial execution reports. A ruled cell's own batch wins
// over Bucket, and a start that is not bucket-aligned counts buckets
// from the start, the last one clipped to the budget.
func TestRunBucketedBlocksFullWidth(t *testing.T) {
	const threshold = 3 << 62
	cases := []struct {
		name      string
		cell      Cell
		wantSizes []int // OnBatch trial counts, in order
		wantClaim int   // widest block claim
	}{
		{"un-ruled bucket", Cell{MaxTrials: 1000, Bucket: 32}, repeatSizes(32, 31, 8), stat.BlockWidth},
		{"un-ruled bucket clipped", Cell{MaxTrials: 40, Start: stat.Proportion{Successes: 9, Trials: 20}, Bucket: 32}, []int{20}, 20},
		{"un-ruled odd bucket", Cell{MaxTrials: 200, Start: stat.Proportion{Successes: 5, Trials: 7}, Bucket: 24}, repeatSizes(24, 8, 1), stat.BlockWidth},
		{"rule batch wins over bucket", Cell{MaxTrials: 40, Rule: stat.StopRule{HalfWidth: 1e-9, Batch: 8}, Bucket: 32}, []int{8, 8, 8, 8, 8}, 8},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3} {
			run := func(blocks bool) ([][2]int, int, stat.Proportion) {
				var batches [][2]int
				var widest atomic.Int64
				cell := c.cell
				cell.BaseSeed = 5
				cell.NewTrial = func() stat.Trial { return synthTrial(threshold) }
				if blocks {
					cell.NewBlock = func() stat.TrialBlock {
						block := synthBlock(threshold)
						return func(base uint64, count int) uint64 {
							for w := widest.Load(); int64(count) > w && !widest.CompareAndSwap(w, int64(count)); w = widest.Load() {
							}
							return block(base, count)
						}
					}
				}
				cell.OnBatch = func(trials, successes int) { batches = append(batches, [2]int{trials, successes}) }
				p := EstimateCell(workers, cell)
				return batches, int(widest.Load()), p
			}
			trialB, _, trialP := run(false)
			blockB, widest, blockP := run(true)
			label := fmt.Sprintf("%s/workers=%d", c.name, workers)
			if widest != c.wantClaim {
				t.Errorf("%s: widest block claim %d, want %d", label, widest, c.wantClaim)
			}
			if fmt.Sprint(trialB) != fmt.Sprint(blockB) || trialP != blockP {
				t.Errorf("%s: blocks %v %+v, trials %v %+v", label, blockB, blockP, trialB, trialP)
			}
			sum := c.cell.Start
			var sizes []int
			for _, b := range blockB {
				sizes = append(sizes, b[0])
				sum.Trials += b[0]
				sum.Successes += b[1]
			}
			if fmt.Sprint(sizes) != fmt.Sprint(c.wantSizes) {
				t.Errorf("%s: bucket sizes %v, want %v", label, sizes, c.wantSizes)
			}
			if sum != blockP {
				t.Errorf("%s: buckets sum to %+v, estimate %+v", label, sum, blockP)
			}
		}
	}
}

// repeatSizes is n buckets of size followed by a tail bucket of tail.
func repeatSizes(size, n, tail int) []int {
	out := make([]int, n, n+1)
	for i := range out {
		out[i] = size
	}
	return append(out, tail)
}

// TestSharedKeyReusesTrials: cells with one SharedKey must instantiate at
// most one Trial per worker, not one per (worker, cell).
func TestSharedKeyReusesTrials(t *testing.T) {
	var made atomic.Int64
	const workers = 3
	cells := make([]Cell, 12)
	for i := range cells {
		cells[i] = Cell{
			MaxTrials: 64, BaseSeed: uint64(i) * 1000, SharedKey: "same-plan",
			NewTrial: func() stat.Trial {
				made.Add(1)
				return fakeTrial(0.5)
			},
		}
	}
	if err := Run(context.Background(), workers, cells, nil); err != nil {
		t.Fatal(err)
	}
	if n := made.Load(); n > workers {
		t.Fatalf("NewTrial called %d times for %d workers sharing one key", n, workers)
	}
}

// TestEarlyStoppedCellYieldsWorkers: schedule one cell that stops after
// its first batch next to one that runs a long full sample; both must
// finish, and the early cell must report its decided batch count.
func TestEarlyStoppedCellYieldsWorkers(t *testing.T) {
	cells := []Cell{
		{MaxTrials: 100000, BaseSeed: 1, NewTrial: func() stat.Trial { return fakeTrial(1.0) },
			Rule: stat.StopRule{UseTarget: true, Target: 0.5, Z: 2.6}},
		{MaxTrials: 3000, BaseSeed: 2, NewTrial: func() stat.Trial { return fakeTrial(0.5) }},
	}
	got := make([]stat.Proportion, 2)
	if err := Run(context.Background(), 4, cells, func(i int, p stat.Proportion) { got[i] = p }); err != nil {
		t.Fatal(err)
	}
	if got[0].Trials >= 1000 {
		t.Fatalf("always-succeeding cell never stopped early: %+v", got[0])
	}
	if got[1].Trials != 3000 {
		t.Fatalf("full-sample cell ran %d/3000 trials", got[1].Trials)
	}
}

// TestRunCancellation: cancelling the context must stop the schedule and
// report ctx.Err without running the remaining budget.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	cells := []Cell{{
		MaxTrials: 1 << 30, BaseSeed: 1,
		Rule: stat.StopRule{HalfWidth: 1e-9}, // unreachable precision: runs "forever"
		NewTrial: func() stat.Trial {
			return func(seed uint64) bool {
				if ran.Add(1) == 100 {
					cancel()
				}
				return fakeTrial(0.5)(seed)
			}
		},
	}}
	err := Run(ctx, 4, cells, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The bound is loose: trials here are nanosecond-fast, so workers can
	// claim thousands more during the microseconds cancellation takes to
	// propagate — what matters is that the 2^30 budget was abandoned.
	if n := ran.Load(); n > 1<<20 {
		t.Fatalf("ran %d trials after cancellation", n)
	}
}

// TestCancelAtBatchBoundaryNotEmitted: when cancellation lands while a
// cell's final in-flight batch trial completes, the batch boundary is
// reached during wind-down — the truncated cell must NOT be emitted as
// decided, and Run must still report ctx.Err().
func TestCancelAtBatchBoundaryNotEmitted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := []Cell{{
		MaxTrials: 1 << 20, BaseSeed: 0,
		Rule: stat.StopRule{HalfWidth: 1e-9, Batch: 4}, // never satisfied; tiny batches
		NewTrial: func() stat.Trial {
			return func(seed uint64) bool {
				if seed == 3 { // last trial of the first batch
					cancel()
				}
				return fakeTrial(0.5)(seed)
			}
		},
	}}
	emitted := 0
	err := Run(ctx, 1, cells, func(int, stat.Proportion) { emitted++ })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted != 0 {
		t.Fatalf("truncated cell was emitted as decided (%d emits)", emitted)
	}
}

// TestManyCellsManyWorkers is a stress shape: more cells than workers,
// mixed rules, run under the race detector in CI.
func TestManyCellsManyWorkers(t *testing.T) {
	const n = 40
	cells := make([]Cell, n)
	var mu sync.Mutex
	seen := map[int]stat.Proportion{}
	for i := range cells {
		i := i
		rule := stat.StopRule{}
		if i%2 == 0 {
			rule = stat.StopRule{UseTarget: true, Target: 0.5, Z: 2.6}
		}
		cells[i] = Cell{
			MaxTrials: 200 + i, BaseSeed: uint64(i) * 7919, Rule: rule,
			NewTrial: func() stat.Trial { return fakeTrial(float64(i) / n) },
		}
	}
	if err := Run(context.Background(), 5, cells, func(i int, p stat.Proportion) {
		mu.Lock()
		seen[i] = p
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("only %d/%d cells reported", len(seen), n)
	}
	// Re-run: every cell must reproduce exactly (determinism under load).
	if err := Run(context.Background(), 11, cells, func(i int, p stat.Proportion) {
		mu.Lock()
		if seen[i] != p {
			t.Errorf("cell %d nondeterministic: %+v vs %+v", i, seen[i], p)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateCell(t *testing.T) {
	p := EstimateCell(3, Cell{MaxTrials: 400, BaseSeed: 9, NewTrial: func() stat.Trial { return fakeTrial(0.25) }})
	if p.Trials != 400 {
		t.Fatalf("ran %d/400 trials", p.Trials)
	}
	want := stat.EstimateStream(400, 9, 2, stat.StopRule{}, func() stat.Trial { return fakeTrial(0.25) })
	if p != want {
		t.Fatalf("EstimateCell %+v != stream %+v", p, want)
	}
}

// TestProbeObservation pins the Probe contract: per-batch stats fire at
// every batch boundary, their trial/success sums reconcile exactly with
// the cell's final tally, timing fields are populated, and — the
// determinism half — attaching a probe changes nothing about the result.
func TestProbeObservation(t *testing.T) {
	mkCells := func(probe func(BatchStat)) []Cell {
		return []Cell{
			{
				MaxTrials: 500, BaseSeed: 1,
				// An enabled rule that cannot trigger in 500 trials, so the
				// stream runs in 64-trial batches to budget exhaustion.
				Rule:     stat.StopRule{HalfWidth: 0.0001, Batch: 64},
				NewTrial: func() stat.Trial { return fakeTrial(0.5) },
				Probe:    probe,
			},
			{
				MaxTrials: 300, BaseSeed: 9,
				Start:    stat.Proportion{Successes: 60, Trials: 100},
				Rule:     stat.StopRule{Batch: 50},
				NewTrial: func() stat.Trial { return fakeTrial(0.7) },
				Probe:    probe,
			},
		}
	}
	run := func(cells []Cell) []stat.Proportion {
		got := make([]stat.Proportion, len(cells))
		if err := Run(context.Background(), 4, cells, func(i int, p stat.Proportion) { got[i] = p }); err != nil {
			t.Fatal(err)
		}
		return got
	}

	var mu sync.Mutex
	var stats []BatchStat
	probed := run(mkCells(func(bs BatchStat) {
		mu.Lock()
		stats = append(stats, bs)
		mu.Unlock()
	}))
	bare := run(mkCells(nil))
	for i := range bare {
		if probed[i] != bare[i] {
			t.Fatalf("cell %d: probed tally %+v != unprobed %+v", i, probed[i], bare[i])
		}
	}

	// Reconcile the probe stream against the final tallies. The resume
	// prefix (cell 1's Start) is prior work, never reported.
	trials := map[int]int{}
	succ := map[int]int{}
	for _, bs := range stats {
		if bs.Cell != 0 && bs.Cell != 1 {
			t.Fatalf("probe reported unknown cell %d", bs.Cell)
		}
		if bs.Trials <= 0 {
			t.Fatalf("empty batch reported: %+v", bs)
		}
		if bs.Engine < 0 || bs.Wall <= 0 {
			t.Fatalf("unpopulated timing: %+v", bs)
		}
		trials[bs.Cell] += bs.Trials
		succ[bs.Cell] += bs.Successes
	}
	if trials[0] != probed[0].Trials || succ[0] != probed[0].Successes {
		t.Fatalf("cell 0: probe saw %d/%d, tally %+v", succ[0], trials[0], probed[0])
	}
	wantTrials := probed[1].Trials - 100 // minus the resumed prefix
	wantSucc := probed[1].Successes - 60
	if trials[1] != wantTrials || succ[1] != wantSucc {
		t.Fatalf("cell 1: probe saw %d/%d, want %d/%d", succ[1], trials[1], wantSucc, wantTrials)
	}
	// Batch sizing is probe-independent: cell 0 runs to budget with
	// batch 64, partitioned the same way as without a probe
	// (500 = 7×64 + 52).
	var c0 int
	for _, bs := range stats {
		if bs.Cell == 0 {
			c0++
		}
	}
	if c0 != 8 {
		t.Fatalf("cell 0 reported %d batches, want 8", c0)
	}
}
