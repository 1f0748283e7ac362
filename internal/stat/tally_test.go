package stat

import "testing"

// hashTrial is a deterministic synthetic trial: success iff a splitmix-style
// hash of the seed lands below the threshold. It stands in for a simulation
// so the replay equivalence below is a pure property of the statistics.
func hashTrial(threshold uint64) Trial {
	return func(seed uint64) bool {
		z := seed + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z^(z>>31) < threshold
	}
}

// shardTallies executes the full trial range [start, maxTrials) with no
// stopping rule, sliced into shards of shardTrials bucketed at batch —
// what a fleet of workers would return for the stream.
func shardTallies(trial Trial, baseSeed uint64, start, maxTrials, shardTrials, batch int) []Tally {
	var out []Tally
	for first := start; first < maxTrials; first += shardTrials {
		n := shardTrials
		if rest := maxTrials - first; n > rest {
			n = rest
		}
		t := Tally{Trials: n, Batch: batch, Successes: make([]int, (n+batch-1)/batch)}
		for i := 0; i < n; i++ {
			if trial(baseSeed + uint64(first+i)) {
				t.Successes[i/batch]++
			}
		}
		out = append(out, t)
	}
	return out
}

// replay folds shard tallies, in shard order, through a Fold resumed at
// start — the cluster coordinator's merge — and reports the estimate and
// whether the stream is decided. Buckets past the deciding one are
// discarded.
func replay(start Proportion, maxTrials int, rule StopRule, tallies []Tally) (Proportion, bool) {
	f := Fold{P: start, Max: maxTrials, Rule: rule}
	if f.Done() {
		return f.P, true
	}
	for _, t := range tallies {
		for i, s := range t.Successes {
			if f.Add(min(t.Batch, t.Trials-i*t.Batch), s) {
				return f.P, true
			}
		}
	}
	return f.P, false
}

func TestFoldNext(t *testing.T) {
	ruled := StopRule{HalfWidth: 0.01}
	cases := []struct {
		name string
		f    Fold
		want int
	}{
		{"default batch", Fold{Max: 1000, Rule: ruled}, DefaultBatch},
		{"explicit batch", Fold{Max: 1000, Rule: StopRule{HalfWidth: 0.01, Batch: 8}}, 8},
		{"unaligned start", Fold{P: Proportion{Trials: 7}, Max: 1000, Rule: ruled}, DefaultBatch},
		{"ruled last batch clipped", Fold{P: Proportion{Trials: 32}, Max: 40, Rule: ruled}, 8},
		{"un-ruled whole rest", Fold{P: Proportion{Trials: 7}, Max: 1000}, 993},
		{"disabled rule batch ignored", Fold{Max: 1000, Rule: StopRule{Batch: 8}}, 1000},
	}
	for _, c := range cases {
		if got := c.f.Next(); got != c.want {
			t.Errorf("%s: Next() = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestFoldAdd: Add reports the decision at the boundary it folds (starts
// that are already exhausted or decided are TestReplayStartAlreadyDecided).
func TestFoldAdd(t *testing.T) {
	fresh := Fold{Max: 1000, Rule: StopRule{HalfWidth: 0.5}}
	if fresh.Done() {
		t.Error("empty start done before any trial")
	}
	if !fresh.Add(32, 30) || fresh.P != (Proportion{Successes: 30, Trials: 32}) {
		t.Errorf("first batch under a loose half-width: %+v done=%v", fresh.P, fresh.Done())
	}
	unruled := Fold{Max: 40}
	if unruled.Add(32, 5) {
		t.Error("un-ruled stream done before its budget")
	}
	if !unruled.Add(unruled.Next(), 3) || unruled.P != (Proportion{Successes: 8, Trials: 40}) {
		t.Errorf("un-ruled stream at its budget: %+v", unruled.P)
	}
}

// TestReplayMatchesStream pins the cluster determinism contract at the
// statistics level: folding per-batch shard tallies reproduces the exact
// Proportion (successes AND executed trials) of the sequential stream, for
// stopping rules of every kind, shard sizes that do and do not divide the
// budget, and resumed starts.
func TestReplayMatchesStream(t *testing.T) {
	rules := map[string]StopRule{
		"none":      {},
		"target":    {UseTarget: true, Target: 0.65, Z: 2.576},
		"halfwidth": {HalfWidth: 0.05},
		"both":      {UseTarget: true, Target: 0.65, Z: 2.576, HalfWidth: 0.04},
		"batch8":    {UseTarget: true, Target: 0.65, Z: 2.576, Batch: 8},
	}
	for name, rule := range rules {
		for _, shardBatches := range []int{1, 3, 7} {
			for _, start := range []Proportion{{}, {Successes: 37, Trials: 50}} {
				batch := rule.BatchSize()
				const maxTrials = 1000
				trial := hashTrial(3 << 61) // ≈ 0.75 success rate, near the target
				maker := func() Trial { return trial }
				want := EstimateStreamFrom(start, maxTrials, 99, 4, rule, maker)

				shardTr := shardBatches * batch
				if !rule.Enabled() {
					// Without a rule there are no intra-shard decisions;
					// bucket at shard size, as the coordinator does.
					batch = shardTr
				}
				tallies := shardTallies(trial, 99, start.Trials, maxTrials, shardTr, batch)
				got, done := replay(start, maxTrials, rule, tallies)
				if !done {
					t.Errorf("%s/shard=%d/start=%v: replay of the full budget not done", name, shardTr, start)
				}
				if got != want {
					t.Errorf("%s/shard=%d/start=%v: replay %+v, stream %+v", name, shardTr, start, got, want)
				}
			}
		}
	}
}

func TestReplayStartAlreadyDecided(t *testing.T) {
	start := Proportion{Successes: 90, Trials: 100}
	p, done := replay(start, 100, StopRule{}, nil)
	if !done || p != start {
		t.Fatalf("exhausted start: got %+v done=%v", p, done)
	}
	p, done = replay(start, 1000, StopRule{UseTarget: true, Target: 0.2}, nil)
	if !done || p != start {
		t.Fatalf("decided start: got %+v done=%v", p, done)
	}
}

// TestReplayDiscardsSpeculation: tallies past the deciding boundary must
// not leak into the estimate.
func TestReplayDiscardsSpeculation(t *testing.T) {
	rule := StopRule{HalfWidth: 0.5} // decided after the very first batch
	tallies := []Tally{
		{Trials: 64, Batch: 32, Successes: []int{30, 1}},
		{Trials: 64, Batch: 32, Successes: []int{0, 0}},
	}
	p, done := replay(Proportion{}, 1000, rule, tallies)
	if !done {
		t.Fatal("not done")
	}
	if p.Trials != 32 || p.Successes != 30 {
		t.Fatalf("speculative buckets leaked: %+v", p)
	}
}

func TestTallyCheck(t *testing.T) {
	ok := Tally{Trials: 70, Batch: 32, Successes: []int{10, 32, 6}}
	if err := ok.Check(); err != nil {
		t.Fatalf("valid tally rejected: %v", err)
	}
	if err := (Tally{}).Check(); err != nil {
		t.Fatalf("empty tally rejected: %v", err)
	}
	bad := []Tally{
		{Trials: -1},
		{Trials: 10, Batch: 0, Successes: []int{1}},
		{Trials: 70, Batch: 32, Successes: []int{10, 32}},       // missing bucket
		{Trials: 70, Batch: 32, Successes: []int{10, 32, 7}},    // ragged bucket overflow
		{Trials: 70, Batch: 32, Successes: []int{10, -1, 6}},    // negative
		{Trials: 0, Batch: 32, Successes: []int{0}},             // buckets without trials
		{Trials: 64, Batch: 32, Successes: []int{33, 0}},        // full bucket overflow
		{Trials: 64, Batch: 32, Successes: []int{10, 20, 0, 0}}, // too many buckets
	}
	for i, tl := range bad {
		if err := tl.Check(); err == nil {
			t.Errorf("bad tally %d accepted: %+v", i, tl)
		}
	}
	if got := ok.Total(); got != 48 {
		t.Fatalf("Total = %d, want 48", got)
	}
}
