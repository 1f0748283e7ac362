package sim_test

import (
	"testing"

	"faultcast/internal/adversary"
	"faultcast/internal/graph"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
)

// steadyNode transmits a preallocated broadcast every round and ignores
// deliveries — the allocation-free protocol used to isolate the engine's
// own per-round cost. With sourceOnly, only the source transmits, so every
// round is one of the star adversary's S-steps.
type steadyNode struct {
	sourceOnly bool
	ts         []sim.Transmission
	out        []byte
}

func (s *steadyNode) Init(env *sim.Env) {
	s.out = env.SourceMsg
	if s.out == nil {
		s.out = []byte("x")
	}
	if !s.sourceOnly || env.IsSource() {
		s.ts = []sim.Transmission{{To: sim.Broadcast, Payload: s.out}}
	}
}
func (s *steadyNode) Transmit(round int) []sim.Transmission { return s.ts }
func (s *steadyNode) Deliver(round, from int, p []byte)     {}
func (s *steadyNode) Output() []byte                        { return s.out }

// steadyRoundAllocs warms a run state of cfg up to steady state (delivery,
// talker and adversary scratch grown; the graph's lazily built adjacency
// rows in place) and returns the total allocations of 200 further rounds.
// One AllocsPerRun call spans all of them, so its per-run division cannot
// round away allocations that only some rounds make.
func steadyRoundAllocs(t *testing.T, cfg *sim.Config) float64 {
	t.Helper()
	step, err := sim.RoundStepper(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	var roundErr error
	oneRound := func() {
		if err := step(); err != nil && roundErr == nil {
			roundErr = err
		}
	}
	rounds := func() {
		for i := 0; i < 200; i++ {
			oneRound()
		}
	}
	rounds() // warm-up
	allocs := testing.AllocsPerRun(1, rounds)
	if roundErr != nil {
		t.Fatal(roundErr)
	}
	return allocs
}

// TestOmissionFastPathZeroAlloc: after warm-up, a full engine round on the
// omission fast path (fault mask sampling, mask-intersection silencing,
// bitset delivery, node callbacks) must perform zero allocations, in both
// models. This pins the tentpole's allocation win: per-round cost is pure
// computation once the reused buffers reach steady state.
func TestOmissionFastPathZeroAlloc(t *testing.T) {
	for _, model := range []sim.Model{sim.MessagePassing, sim.Radio} {
		cfg := &sim.Config{
			Graph: graph.Grid(8, 8), Model: model, Fault: sim.Omission, P: 0.4,
			Source: 0, SourceMsg: []byte("m"),
			NewNode: func(int) sim.Node { return &steadyNode{} },
			Rounds:  1, Seed: 1,
		}
		if allocs := steadyRoundAllocs(t, cfg); allocs != 0 {
			t.Fatalf("%v: omission fast path allocates %.0f times in 200 steady-state rounds, want 0", model, allocs)
		}
	}
}

// TestStarAdversaryRoundZeroAlloc is the malicious twin: a radio round on
// a star under the Theorem 2.4 adversary, every round an S-step, on the
// bitset core. The adversary's faulty list, replacement map and jam
// transmissions all live in engine-owned scratch (the sim.Adversary
// lifetime contract), so a steady-state round allocates nothing — below
// the threshold (jam or equivocate) and above it (plus slowing draws).
func TestStarAdversaryRoundZeroAlloc(t *testing.T) {
	g := graph.Star(9)
	pStar := stat.RadioThreshold(g.MaxDegree())
	for _, p := range []float64{0.9 * pStar, 1.5 * pStar} {
		cfg := &sim.Config{
			Graph: g, Model: sim.Radio, Fault: sim.Malicious, P: p,
			Source: 1, SourceMsg: []byte("1"),
			NewNode: func(int) sim.Node { return &steadyNode{sourceOnly: true} },
			Rounds:  1, Seed: 1,
			Adversary: adversary.Star{M0: []byte("0"), M1: []byte("1")},
		}
		if allocs := steadyRoundAllocs(t, cfg); allocs != 0 {
			t.Fatalf("p=%.3f: star-adversary rounds allocate %.0f times in 200 steady-state rounds, want 0", p, allocs)
		}
	}
}
