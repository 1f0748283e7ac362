package faultcast

import (
	"context"
	"testing"
)

// TestSweepGoldenLaneFamilies pins the exact (trials, successes) of one
// small sweep cell per lane-core fault family whose fault sampling differs
// — message-passing malicious under flip, the composed algorithm under
// limited-malicious faults, flooding and RadioRepeat under omission, and
// the source-only equivocator past p = 1/2, where its slowing draw fires.
// Every cell is forced onto the lane core, so a change to which fault
// draws the lane sampler computes, or to how it keeps its streams aligned,
// shows up here as a concrete diff. The table was recorded before the
// sampler learned to skip unread draws; it is deterministic on every
// machine and worker count.
func TestSweepGoldenLaneFamilies(t *testing.T) {
	graph := func(spec string) *Graph {
		g, err := ParseGraph(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cells := []Config{
		{Graph: graph("grid:4x4"), Model: MessagePassing, Fault: Malicious, P: 0.3,
			Algorithm: SimpleMalicious, Adversary: FlipAdv, WindowC: 4},
		// The composed schedule's majority votes almost never fail at its
		// own horizon; a truncated one leaves a failing trial to pin.
		{Graph: graph("grid:3x3"), Model: MessagePassing, Fault: LimitedMalicious, P: 0.35,
			Algorithm: Composed, Adversary: WorstCase, Rounds: 840},
		{Graph: graph("grid:5x5"), Model: MessagePassing, Fault: Omission, P: 0.6,
			Algorithm: Flooding, WindowC: 2},
		{Graph: graph("line:12"), Model: Radio, Fault: Omission, P: 0.5,
			Algorithm: RadioRepeat},
		{Graph: graph("line:8"), Model: MessagePassing, Fault: Malicious, P: 0.56,
			Algorithm: SimpleMalicious, Adversary: WorstCase, WindowC: 3},
	}
	for i := range cells {
		cells[i].Message = []byte("1")
		cells[i].Core = CoreLanes
	}
	sp, err := CompileSweep(SweepSpec{
		Cells:  cells,
		Seed:   0x5eed,
		Budget: CellBudget{Trials: 512, HalfWidth: 0.04},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := sp.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct{ succ, trials int }{
		{212, 512}, {95, 96}, {291, 352}, {93, 96}, {247, 512},
	}
	if len(results) != len(golden) {
		t.Fatalf("got %d cells, want %d", len(results), len(golden))
	}
	for i, want := range golden {
		r := results[i]
		if core := r.Cell.Plan().EstimationCore(); core != "lanes" {
			t.Fatalf("cell %d ran on the %s core, want lanes", i, core)
		}
		if got := r.Estimate; got.Succeeds != want.succ || got.Trials != want.trials {
			t.Errorf("cell %d: got %d/%d, golden %d/%d (%s)",
				i, got.Succeeds, got.Trials, want.succ, want.trials, r.Cell.Key)
		}
	}
}
