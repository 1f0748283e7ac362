package decay

import (
	"testing"

	"faultcast/internal/graph"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
)

func estimate(t *testing.T, g *graph.Graph, p float64, epochs, trials int) stat.Proportion {
	t.Helper()
	proto := New(g)
	return stat.Estimate(trials, 77, func(seed uint64) bool {
		cfg := &sim.Config{
			Graph: g, Model: sim.Radio, Fault: sim.Omission, P: p,
			Source: 0, SourceMsg: []byte("M"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(epochs), Seed: seed,
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Error(err)
			return false
		}
		return res.Success
	})
}

func TestEpochLen(t *testing.T) {
	if got := New(graph.Line(16)).EpochLen(); got != 5 {
		t.Fatalf("epoch len = %d, want 5", got)
	}
	if got := New(graph.Line(1)).EpochLen(); got != 1 {
		t.Fatalf("single node epoch len = %d, want 1", got)
	}
}

func TestFaultFreeInformsEveryone(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Line(16), graph.Star(16), graph.Grid(4, 4), graph.Layered(4)} {
		est := estimate(t, g, 0, 8*g.Radius(0)+40, 100)
		if est.Rate() < 0.99 {
			t.Errorf("%v: fault-free decay success %v", g, est)
		}
	}
}

func TestUnderOmissionFaults(t *testing.T) {
	g := graph.Grid(4, 4)
	est := estimate(t, g, 0.5, 120, 200)
	if est.Rate() < 0.95 {
		t.Errorf("decay at p=0.5: %v", est)
	}
}

func TestRandomizationMatters(t *testing.T) {
	// Different seeds must produce different executions: on a grid many
	// informed nodes share uninformed neighbors, so the random
	// transmission pattern shows up directly in the collision counter.
	g := graph.Grid(5, 5)
	proto := New(g)
	counts := map[int]bool{}
	for seed := uint64(0); seed < 20; seed++ {
		cfg := &sim.Config{
			Graph: g, Model: sim.Radio, Fault: sim.NoFaults,
			Source: 0, SourceMsg: []byte("M"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(10), Seed: seed,
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Stats.Collisions] = true
	}
	if len(counts) < 3 {
		t.Fatalf("collision counts show no run-to-run variation: %v", counts)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g := graph.Grid(3, 3)
	proto := New(g)
	run := func() *sim.Result {
		cfg := &sim.Config{
			Graph: g, Model: sim.Radio, Fault: sim.Omission, P: 0.3,
			Source: 0, SourceMsg: []byte("M"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(30), Seed: 5,
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Success != b.Success || a.Stats != b.Stats {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestEnginesAgreeOnRandomizedProtocol(t *testing.T) {
	// The per-node random streams are reseeded per trial, so even a
	// randomized protocol must give a reused Runner's trial the result of a
	// fresh Run with the same seed. (The goroutine-per-node reference
	// engine is checked on this protocol in internal/sim's tests.)
	g := graph.Grid(3, 3)
	proto := New(g)
	cfg := &sim.Config{
		Graph: g, Model: sim.Radio, Fault: sim.Omission, P: 0.3,
		Source: 0, SourceMsg: []byte("M"),
		NewNode: proto.NewNode, Rounds: proto.Rounds(30), Seed: 11,
	}
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the runner's state with another seed first.
	if _, err := runner.Run(cfg.Seed + 1); err != nil {
		t.Fatal(err)
	}
	a, err := runner.Run(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Success != b.Success || a.Stats != b.Stats {
		t.Fatalf("reused runner diverged on randomized protocol: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestRoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rounds(0) did not panic")
		}
	}()
	New(graph.Line(4)).Rounds(0)
}
