package faultcast

import "testing"

// Coupled-randomness monotonicity: a trial's fault draws do not depend on
// who transmits — every vertex's fault generator steps every round, and a
// fault is a threshold compare of that draw against p — so under one seed,
// raising p only adds faults. Under message-passing omission fewer
// deliveries can only shrink the informed sets, so a trial that succeeds
// at some p succeeds at every smaller p (Glasserman & Yao's common random
// numbers). These checks hold exactly at any size, so they cover graphs
// no exact oracle reaches. The horizon is pinned (Rounds, WindowC) so
// that it does not move with p. The radio model is not monotone — a fault
// can remove a collision — and stays out of scope.

// monotoneScenarios are message-passing omission scenarios with a fixed
// horizon, each with increasing ps spanning its success transition.
func monotoneScenarios() map[string]struct {
	cfg Config
	ps  []float64
} {
	return map[string]struct {
		cfg Config
		ps  []float64
	}{
		"flooding/grid:20x20": {
			Config{
				Graph: Grid(20, 20), Source: 0, Message: []byte("1"),
				Model: MessagePassing, Fault: Omission,
				Algorithm: Flooding, Rounds: 70,
			},
			[]float64{0.30, 0.34, 0.38, 0.42, 0.46, 0.50, 0.54},
		},
		"simple-omission/tree:40:3": {
			Config{
				Graph: KaryTree(40, 3), Source: 0, Message: []byte("1"),
				Model: MessagePassing, Fault: Omission,
				Algorithm: SimpleOmission, WindowC: 1, Rounds: 240,
			},
			[]float64{0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75},
		},
	}
}

// compileAt compiles cfg at failure probability p on core.
func compileAt(t *testing.T, cfg Config, p float64, core string) *Plan {
	t.Helper()
	cfg.P = p
	plan, err := compileOn(cfg, core)
	if err != nil {
		t.Fatalf("p=%v core=%v: %v", p, core, err)
	}
	return plan
}

// TestCoupledMonotoneInP: with one base seed and no stop rule, the success
// count of Estimate is non-increasing in p on both production cores, and
// so is every per-trial verdict of a lane TallyShard and of Plan.Run.
func TestCoupledMonotoneInP(t *testing.T) {
	const (
		trials      = 64  // one full lane block per Estimate
		shardTrials = 256 // per-trial lane verdicts
		runTrials   = 24  // per-trial Plan.Run checks on the round engine
		seed        = 1
	)
	for name, sc := range monotoneScenarios() {
		t.Run(name, func(t *testing.T) {
			for _, core := range []string{"lanes", "bitset"} {
				prev, varied := trials+1, false
				for _, p := range sc.ps {
					est, err := compileAt(t, sc.cfg, p, core).Estimate(trials, WithBaseSeed(seed), WithWorkers(2))
					if err != nil {
						t.Fatal(err)
					}
					if est.Trials != trials {
						t.Fatalf("%v p=%v: ran %d of %d trials with no stop rule", core, p, est.Trials, trials)
					}
					if est.Succeeds > prev {
						t.Fatalf("%v: %d successes at p=%v after %d at a smaller p", core, est.Succeeds, p, prev)
					}
					varied = varied || (prev <= trials && est.Succeeds != prev)
					prev = est.Succeeds
				}
				if !varied {
					t.Fatalf("%v: the success count never moved across %v", core, sc.ps)
				}
			}

			var prevShard ShardTally
			prevRun := make([]bool, runTrials)
			for i, p := range sc.ps {
				shard := compileAt(t, sc.cfg, p, "lanes").TallyShard(seed, shardTrials, 1, 2)
				plan := compileAt(t, sc.cfg, p, "bitset")
				for j := 0; j < shardTrials; j++ {
					if i > 0 && shard.Successes[j] > prevShard.Successes[j] {
						t.Fatalf("lane trial %d succeeds at p=%v but fails at p=%v", j, p, sc.ps[i-1])
					}
				}
				for j := range prevRun {
					res, err := plan.Run(seed + uint64(j))
					if err != nil {
						t.Fatal(err)
					}
					if i > 0 && res.Success && !prevRun[j] {
						t.Fatalf("Plan.Run seed %d succeeds at p=%v but fails at p=%v", seed+j, p, sc.ps[i-1])
					}
					prevRun[j] = res.Success
				}
				prevShard = shard
			}
		})
	}
}
