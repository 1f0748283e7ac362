package faultcast

import (
	"strings"
	"testing"
)

// planScenarios enumerates one configuration per (model × fault ×
// algorithm) combination the builder accepts; the compile/run split must
// be invisible for every one of them.
func planScenarios() map[string]Config {
	return map[string]Config{
		"mp/omission/simple-omission": {
			Graph: Line(12), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Omission, P: 0.4,
			Algorithm: SimpleOmission,
		},
		"mp/omission/flooding": {
			Graph: Grid(4, 4), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Omission, P: 0.5,
			Algorithm: Flooding,
		},
		"mp/malicious/simple-malicious": {
			Graph: KaryTree(15, 2), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Malicious, P: 0.3,
			Algorithm: SimpleMalicious, Adversary: FlipAdv,
		},
		"mp/malicious/worst-case-equivocator": {
			Graph: TwoNode(), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Malicious, P: 0.5,
			Algorithm: SimpleMalicious, Adversary: WorstCase, WindowC: 9,
		},
		"mp/limited/composed": {
			Graph: Line(9), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: LimitedMalicious, P: 0.2,
			Algorithm: Composed, Adversary: FlipAdv,
		},
		"mp/limited/timing-bit": {
			Graph: TwoNode(), Source: 0, Message: []byte("0"),
			Model: MessagePassing, Fault: LimitedMalicious, P: 0.6,
			Algorithm: TimingBit, Adversary: CrashAdv,
		},
		"radio/omission/simple-omission": {
			Graph: Star(6), Source: 1, Message: []byte("1"),
			Model: Radio, Fault: Omission, P: 0.3,
			Algorithm: SimpleOmission,
		},
		"radio/omission/radio-repeat": {
			Graph: Layered(3), Source: 0, Message: []byte("1"),
			Model: Radio, Fault: Omission, P: 0.4,
			Algorithm: RadioRepeat,
		},
		"radio/malicious/radio-repeat": {
			Graph: Line(10), Source: 0, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: 0.05,
			Algorithm: RadioRepeat, Adversary: FlipAdv,
		},
		"radio/malicious/worst-case-star": {
			Graph: Star(5), Source: 1, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: 0.2,
			Algorithm: SimpleMalicious, Adversary: WorstCase, WindowC: 6,
		},
	}
}

// TestPlanRunMatchesOneShot: Plan.Run(seed) must be bit-identical to the
// one-shot Run(cfg) with that seed, for every scenario and several seeds.
func TestPlanRunMatchesOneShot(t *testing.T) {
	for name, cfg := range planScenarios() {
		t.Run(name, func(t *testing.T) {
			plan, err := Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 5; seed++ {
				c := cfg
				c.Seed = seed
				want, err := Run(c)
				if err != nil {
					t.Fatal(err)
				}
				got, err := plan.Run(seed)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d: plan %+v != one-shot %+v", seed, got, want)
				}
			}
		})
	}
}

// TestPlanCoresAndEnginesEquivalent: for every compiled scenario — the
// paper's real protocols, not test fixtures — the round engines Plan.Run
// can select (the word-parallel bitset core, the scalar reference core,
// and the goroutine-per-node engine) must produce identical public
// Results on identical seeds. This is the public-API face of the engine's
// differential-equivalence matrix.
func TestPlanCoresAndEnginesEquivalent(t *testing.T) {
	for name, cfg := range planScenarios() {
		t.Run(name, func(t *testing.T) {
			plan, err := Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, core := range []Core{CoreBitset, CoreScalar, CoreConcurrent} {
				vname := core.String()
				vplan, err := Compile(withCore(cfg, core))
				if err != nil {
					t.Fatalf("%s: %v", vname, err)
				}
				for seed := uint64(1); seed <= 3; seed++ {
					want, err := plan.Run(seed)
					if err != nil {
						t.Fatal(err)
					}
					got, err := vplan.Run(seed)
					if err != nil {
						t.Fatalf("%s seed %d: %v", vname, seed, err)
					}
					if got != want {
						t.Fatalf("%s seed %d: %+v != default %+v", vname, seed, got, want)
					}
				}
			}
		})
	}
}

// TestPlanRunReuse: two consecutive Plan.Run calls with the same seed must
// agree exactly — no state may leak between trials of a compiled plan.
func TestPlanRunReuse(t *testing.T) {
	for name, cfg := range planScenarios() {
		t.Run(name, func(t *testing.T) {
			plan, err := Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Interleave a different seed to perturb any shared state.
			first, err := plan.Run(7)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := plan.Run(1234); err != nil {
				t.Fatal(err)
			}
			again, err := plan.Run(7)
			if err != nil {
				t.Fatal(err)
			}
			if first != again {
				t.Fatalf("reuse diverged: %+v vs %+v", first, again)
			}
		})
	}
}

// TestPlanEstimateMatchesPerTrialRuns: Estimate must count exactly the
// successes of Plan.Run over seeds base, base+1, ..., regardless of the
// worker count.
func TestPlanEstimateMatchesPerTrialRuns(t *testing.T) {
	cfg := planScenarios()["mp/omission/simple-omission"]
	cfg.Seed = 42
	plan, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 50
	wantSucc := 0
	for i := uint64(0); i < trials; i++ {
		res, err := plan.Run(42 + i)
		if err != nil {
			t.Fatal(err)
		}
		if res.Success {
			wantSucc++
		}
	}
	for _, workers := range []int{1, 4} {
		est, err := plan.Estimate(trials, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if est.Succeeds != wantSucc || est.Trials != trials {
			t.Fatalf("workers=%d: estimate %d/%d, per-trial runs %d/%d",
				workers, est.Succeeds, est.Trials, wantSucc, trials)
		}
	}
}

// TestPlanCoresResolvedAtCompile pins the engine resolution table:
// Compile turns every Core value into exactly one concrete engine, which
// EstimationCore reports, the lane block maker follows, and the scalar
// round core is switched on for. CoreAuto picks lanes only for a lowered
// shape that is not held; CoreLanes without a lowering, and an
// out-of-range Core, fail to compile.
func TestPlanCoresResolvedAtCompile(t *testing.T) {
	star := Config{
		Graph: Star(4), Source: 0, Message: []byte("1"),
		Model: Radio, Fault: Malicious, P: 0.1, WindowC: 4, Adversary: WorstCase,
	}
	defaultMsg := planScenarios()["mp/malicious/simple-malicious"]
	defaultMsg.Message = []byte("0")
	scenarios := map[string]struct {
		cfg  Config
		want map[Core]string // "" = Compile must fail
	}{
		"lane-lowered": {planScenarios()["mp/omission/flooding"], map[Core]string{
			CoreAuto: "lanes", CoreLanes: "lanes", CoreBitset: "bitset",
			CoreScalar: "scalar", CoreConcurrent: "concurrent",
		}},
		"default message": {defaultMsg, map[Core]string{
			CoreAuto: "bitset", CoreLanes: "", CoreBitset: "bitset",
			CoreScalar: "scalar", CoreConcurrent: "concurrent",
		}},
		"held hub-source star": {star, map[Core]string{
			CoreAuto: "bitset", CoreLanes: "lanes", CoreBitset: "bitset",
			CoreScalar: "scalar", CoreConcurrent: "concurrent",
		}},
	}
	for name, sc := range scenarios {
		for core, want := range sc.want {
			plan, err := Compile(withCore(sc.cfg, core))
			if want == "" {
				if err == nil || !strings.Contains(err.Error(), "Core=lanes unsupported") {
					t.Errorf("%s, Core=%v: Compile error %v, want the lane gate", name, core, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, Core=%v: %v", name, core, err)
			}
			if got := plan.EstimationCore(); got != want {
				t.Errorf("%s, Core=%v: resolved %q, want %q", name, core, got, want)
			}
			if lanes := plan.newBlockMaker() != nil; lanes != (want == "lanes") {
				t.Errorf("%s, Core=%v: lane block maker %v, resolved %q", name, core, lanes, want)
			}
			if plan.sim.ScalarCore != (want == "scalar") {
				t.Errorf("%s, Core=%v: sim.ScalarCore %v, resolved %q", name, core, plan.sim.ScalarCore, want)
			}
		}
		if _, err := Compile(withCore(sc.cfg, Core(99))); err == nil || !strings.Contains(err.Error(), "unknown core") {
			t.Errorf("%s: Core(99) compile error %v, want unknown core", name, err)
		}
	}
}

// TestPlanEstimateHonorsConcurrent: with Core=CoreConcurrent the
// estimate must use the goroutine-per-node engine — whose results are
// bit-identical — so the two estimates must agree exactly.
func TestPlanEstimateHonorsConcurrent(t *testing.T) {
	cfg := planScenarios()["mp/omission/flooding"]
	cfg.Seed = 9
	seqPlan, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Core = CoreConcurrent
	concPlan, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := concPlan.EstimationCore(); got != "concurrent" {
		t.Fatalf("EstimationCore = %q, want concurrent", got)
	}
	seq, err := seqPlan.Estimate(30)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := concPlan.Estimate(30, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if seq != conc {
		t.Fatalf("engines disagree through Estimate: %+v vs %+v", seq, conc)
	}
}

// TestPlanEstimateEarlyStop: a scenario that always succeeds (p = 0) must
// stop long before the requested trial budget once the interval clears the
// almost-safe bound, and stopping must be deterministic.
func TestPlanEstimateEarlyStop(t *testing.T) {
	cfg := Config{
		Graph: Line(8), Source: 0, Message: []byte("1"),
		Model: MessagePassing, Fault: Omission, P: 0,
		Algorithm: Flooding, Seed: 3,
	}
	plan, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 100000
	est, err := plan.Estimate(budget, WithAlmostSafeTarget())
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials >= budget {
		t.Fatalf("no early stop: ran all %d trials", est.Trials)
	}
	if est.Rate != 1 {
		t.Fatalf("p=0 flooding failed: %+v", est)
	}
	again, err := plan.Estimate(budget, WithAlmostSafeTarget())
	if err != nil {
		t.Fatal(err)
	}
	if est != again {
		t.Fatalf("early stopping nondeterministic: %+v vs %+v", est, again)
	}
	// Half-width stopping must also trigger and be deterministic.
	hw, err := plan.Estimate(budget, WithHalfWidth(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if hw.Trials >= budget {
		t.Fatalf("half-width rule never stopped: %+v", hw)
	}
	if half := (hw.Hi - hw.Low) / 2; half > 0.05 {
		t.Fatalf("stopped with half-width %v > 0.05", half)
	}
}

// TestEstimateSuccessStillFullSample: the wrapper keeps the original
// exhaustive semantics — no early stopping without explicit options.
func TestEstimateSuccessStillFullSample(t *testing.T) {
	cfg := Config{
		Graph: Line(6), Source: 0, Message: []byte("1"),
		Model: MessagePassing, Fault: Omission, P: 0,
		Algorithm: Flooding, Seed: 1,
	}
	est, err := EstimateSuccess(cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials != 500 {
		t.Fatalf("EstimateSuccess ran %d/500 trials", est.Trials)
	}
}

// TestCompileRejectsBadConfigs: Compile must fail exactly where Run fails.
func TestCompileRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Source: 0, Message: []byte("1")},                       // nil graph
		{Graph: Line(4), Source: 0},                             // empty message
		{Graph: Line(4), Source: 9, Message: []byte("1")},       // source range
		{Graph: Line(4), Source: 0, Message: []byte("1"), P: 1}, // p range
		{Graph: Line(4), Source: 0, Message: []byte("1"), Model: Radio, // model mismatch
			Algorithm: Flooding},
	}
	for i, cfg := range bad {
		if _, err := Compile(cfg); err == nil {
			t.Fatalf("case %d: Compile accepted invalid config", i)
		}
	}
}

// TestCompileRejectsLimitedMaliciousStar: the radio worst case on a bit
// message is the star adversary, which jams out of turn; under
// limited-malicious faults the round engine would refuse its first jam in
// the middle of a run, so Compile (and Run) must reject the shape up front,
// on every core, with an error naming it. The legal limited-malicious
// radio shapes still compile.
func TestCompileRejectsLimitedMaliciousStar(t *testing.T) {
	star := Config{
		Graph: Star(4), Source: 0, Message: []byte("1"),
		Model: Radio, Fault: LimitedMalicious, P: 0.2, WindowC: 4,
		Adversary: WorstCase,
	}
	for _, core := range []Core{CoreAuto, CoreLanes, CoreBitset, CoreScalar, CoreConcurrent} {
		if _, err := Compile(withCore(star, core)); err == nil || !strings.Contains(err.Error(), "star adversary") {
			t.Errorf("Core=%v: Compile error %v, want one naming the star adversary", core, err)
		}
	}
	if _, err := Run(star); err == nil {
		t.Error("Run accepted the limited-malicious star")
	}
	for name, cfg := range map[string]Config{
		"crash":          func() Config { c := star; c.Adversary = CrashAdv; return c }(),
		"non-bit worst":  func() Config { c := star; c.Message = []byte("hi"); return c }(),
		"malicious star": func() Config { c := star; c.Fault = Malicious; return c }(),
	} {
		if _, err := Compile(cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
