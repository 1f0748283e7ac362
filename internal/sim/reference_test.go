package sim_test

import (
	"bytes"
	"testing"

	"faultcast/internal/graph"
	"faultcast/internal/protocols/decay"
	"faultcast/internal/sim"
)

// TestConcurrentAgreesOnRandomizedProtocol: a randomized protocol draws
// from per-node streams that do not depend on the engine, so the
// goroutine-per-node reference engine must reproduce the sequential
// engine's result on it exactly, across seeds.
func TestConcurrentAgreesOnRandomizedProtocol(t *testing.T) {
	g := graph.Grid(3, 3)
	proto := decay.New(g)
	for seed := uint64(11); seed < 19; seed++ {
		cfg := &sim.Config{
			Graph: g, Model: sim.Radio, Fault: sim.Omission, P: 0.3,
			Source: 0, SourceMsg: []byte("M"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(30), Seed: seed,
		}
		a, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sim.RunConcurrent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Success != b.Success || a.Stats != b.Stats {
			t.Fatalf("seed %d: engines diverged on randomized protocol: %+v vs %+v", seed, a.Stats, b.Stats)
		}
		for id := range a.Outputs {
			if !bytes.Equal(a.Outputs[id], b.Outputs[id]) {
				t.Fatalf("seed %d: output %d diverges", seed, id)
			}
		}
	}
}
