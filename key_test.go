package faultcast

import (
	"os"
	"sync"
	"testing"

	"faultcast/internal/graph"
	"faultcast/internal/rng"
)

func TestConfigFingerprintSemantics(t *testing.T) {
	base := Config{
		Graph: Grid(4, 4), Source: 0, Message: []byte("1"),
		Model: MessagePassing, Fault: Omission, P: 0.5, Seed: 7,
	}
	if base.Fingerprint() != base.Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}

	// Engine selection and tracing are observation, not semantics: the
	// engines are proven bit-identical, so the key must not split on them.
	same := base
	same.Core = CoreConcurrent
	same.Trace = os.Stderr
	if same.Fingerprint() != base.Fingerprint() {
		t.Error("Core/Trace changed the fingerprint")
	}

	// A structurally identical graph under a different name hashes equal.
	b := graph.NewBuilder(16)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := r*4 + c
			if c+1 < 4 {
				b.AddEdge(v, v+1)
			}
			if r+1 < 4 {
				b.AddEdge(v, v+4)
			}
		}
	}
	renamed := base
	renamed.Graph = b.Build("definitely-not-a-grid")
	if renamed.Fingerprint() != base.Fingerprint() {
		t.Error("graph name changed the fingerprint; keying must be structural")
	}

	// Every semantic field must split the key.
	for name, mutate := range map[string]func(*Config){
		"graph":     func(c *Config) { c.Graph = Grid(4, 5) },
		"source":    func(c *Config) { c.Source = 1 },
		"message":   func(c *Config) { c.Message = []byte("2") },
		"model":     func(c *Config) { c.Model = Radio },
		"fault":     func(c *Config) { c.Fault = Malicious },
		"p":         func(c *Config) { c.P = 0.25 },
		"algorithm": func(c *Config) { c.Algorithm = SimpleOmission },
		"windowc":   func(c *Config) { c.WindowC = 8 },
		"alpha":     func(c *Config) { c.Alpha = 2 },
		"adversary": func(c *Config) { c.Adversary = CrashAdv },
		"seed":      func(c *Config) { c.Seed = 8 },
		"rounds":    func(c *Config) { c.Rounds = 99 },
	} {
		mutated := base
		mutate(&mutated)
		if mutated.Fingerprint() == base.Fingerprint() {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
}

func TestPlanKeyMatchesConfigFingerprint(t *testing.T) {
	cfg := Config{
		Graph: Line(12), Source: 0, Message: []byte("1"),
		Model: MessagePassing, Fault: Omission, P: 0.4, Seed: 3,
	}
	plan, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Key() != cfg.Fingerprint() {
		t.Fatalf("Plan.Key %s != Config.Fingerprint %s", plan.Key(), cfg.Fingerprint())
	}
	// StoreKey is memoised on first use; concurrent first calls all get
	// the seed-less fingerprint.
	seedless := cfg
	seedless.Seed = 0
	keys := make([]string, 4)
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys[i] = plan.StoreKey()
		}()
	}
	wg.Wait()
	for _, k := range keys {
		if k != seedless.Fingerprint() {
			t.Fatalf("Plan.StoreKey %s != seed-less Config.Fingerprint %s", k, seedless.Fingerprint())
		}
	}
}

// TestEstimateFromMatchesEstimate pins the serving layer's refinement
// contract: topping an estimate up to a larger budget through a tally
// store replays the stored prefix and visits exactly the seed sequence a
// from-scratch estimate of the full budget would.
func TestEstimateFromMatchesEstimate(t *testing.T) {
	cfg := Config{
		Graph: Line(16), Source: 0, Message: []byte("1"),
		Model: MessagePassing, Fault: Omission, P: 0.3, Seed: 1,
	}
	plan, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := &memTallyStore{}
	partial, err := plan.Estimate(256, WithTallyStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if partial.Trials != 256 {
		t.Fatalf("partial ran %d trials, want 256", partial.Trials)
	}
	resumed := -1
	report := WithResumeReport(func(n int) { resumed = n })
	refined, err := plan.Estimate(1024, WithTallyStore(st), report)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 256 {
		t.Fatalf("refinement resumed %d stored trials, want 256", resumed)
	}
	full, err := plan.Estimate(1024)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Trials != full.Trials || refined.Succeeds != full.Succeeds {
		t.Fatalf("refined %d/%d != full %d/%d",
			refined.Succeeds, refined.Trials, full.Succeeds, full.Trials)
	}

	// A budget the store already covers is answered from it with zero
	// simulation, equal to a cold run of that budget.
	again, err := plan.Estimate(512, WithTallyStore(st), report)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := plan.Estimate(512)
	if err != nil {
		t.Fatal(err)
	}
	if again != cold || resumed != 512 {
		t.Fatalf("covered budget: %+v (resumed %d) != cold %+v", again, resumed, cold)
	}
}

// TestSweepPlanKeyMatchesSeedlessFingerprint: CompileSweep derives each
// cell's PlanKey from the same seed-less canonical string it seeds the
// cell with; the key must equal the seed-less Config.Fingerprint and the
// cell Key the seeded one, on an axis-expanded grid and on explicit
// cells carrying their own seeds.
func TestSweepPlanKeyMatchesSeedlessFingerprint(t *testing.T) {
	specs := []SweepSpec{{
		Graphs: []SweepGraph{{Spec: "line:10"}, {Spec: "grid:3x3"}},
		Faults: []Fault{Omission, Malicious, LimitedMalicious},
		Ps:     []float64{0.2, 0.3},
		Seed:   5,
	}, {
		Cells: []Config{
			{Graph: Line(8), Message: []byte("1"), Model: Radio, Fault: Omission, P: 0.4, Seed: 11},
			{Graph: Grid(3, 3), Message: []byte("0"), Model: MessagePassing, Fault: LimitedMalicious,
				P: 0.1, Algorithm: Composed, Seed: 12, Core: CoreBitset},
		},
		Seed: 6,
	}}
	for _, spec := range specs {
		sp, err := CompileSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range sp.Cells() {
			seedless := c.Config
			seedless.Seed = 0
			if c.PlanKey != seedless.Fingerprint() {
				t.Errorf("cell %d: PlanKey %s != seed-less Fingerprint %s", c.Index, c.PlanKey, seedless.Fingerprint())
			}
			if c.Key != c.Config.Fingerprint() {
				t.Errorf("cell %d: Key %s != Fingerprint %s", c.Index, c.Key, c.Config.Fingerprint())
			}
			if c.Config.Seed != rng.Derive(spec.Seed, seedless.CanonicalString()) {
				t.Errorf("cell %d: seed %d not derived from its seed-less canonical string", c.Index, c.Config.Seed)
			}
		}
	}
}
