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

// TestLanesGoldenStarCurveCells pins the exact (successes, trials) of the
// eight radio-malicious cells of perfbench's curve-sweep grid: RadioRepeat
// under the Theorem 2.4 star adversary on star:4 and line:8 at
// p*(Δ)·{0.5, 0.8, 0.95, 1.1}, window constant 4, message "1", ±0.02
// half-width within 4096 trials. The two cells above p* run the
// adversary's slowing draws. The table was recorded on the bitset round
// core, before the star adversary had a lane lowering; it must hold under
// Core=auto (which keeps the star:4 cells, source at the hub, on the round
// core) and with every cell forced onto the lane core. It is
// deterministic on every machine and worker count.
func TestLanesGoldenStarCurveCells(t *testing.T) {
	for _, core := range []Core{CoreAuto, CoreLanes} {
		t.Run(core.String(), func(t *testing.T) { checkGoldenStarCurveCells(t, core) })
	}
}

func checkGoldenStarCurveCells(t *testing.T, core Core) {
	var cells []Config
	for _, spec := range []string{"star:4", "line:8"} {
		g, err := ParseGraph(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		pStar := RadioThreshold(g.MaxDegree())
		for _, f := range []float64{0.5, 0.8, 0.95, 1.1} {
			cells = append(cells, Config{
				Graph: g, Message: []byte("1"), Model: Radio, Fault: Malicious,
				P: f * pStar, WindowC: 4, Adversary: WorstCase, Core: core,
			})
		}
	}
	sp, err := CompileSweep(SweepSpec{
		Cells:  cells,
		Seed:   7,
		Budget: CellBudget{Trials: 4096, HalfWidth: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := sp.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct{ succ, trials int }{
		{427, 448}, {1294, 1664}, {1423, 2144}, {1403, 2272}, // star:4
		{341, 352}, {1421, 2112}, {1194, 2400}, {979, 2336}, // line:8
	}
	if len(results) != len(golden) {
		t.Fatalf("got %d cells, want %d", len(results), len(golden))
	}
	for i, want := range golden {
		if got := sp.Cells()[i].Plan().EstimationCore(); core == CoreLanes && got != "lanes" {
			t.Errorf("cell %d: Core=lanes ran on %q", i, got)
		}
		if got := results[i].Estimate; got.Succeeds != want.succ || got.Trials != want.trials {
			t.Errorf("cell %d: got %d/%d, golden %d/%d (%s)",
				i, got.Succeeds, got.Trials, want.succ, want.trials, results[i].Cell.Key)
		}
	}
}

// TestGoldenComposedCurveCells pins the four Composed cells of perfbench's
// curve-sweep grid: grid:6x6 under limited-malicious faults and the
// worst-case adversary at p ∈ {0.10, 0.20, 0.30, 0.35}, message "1", sweep
// seed 7. Each cell pins its compiled round horizon and the exact
// (successes, trials) of a fixed-budget sweep on the lane core (512
// trials) and on the bitset round core (64 trials). Every trial succeeds
// at the algorithm's own horizon, so a fifth cell truncates the p = 0.30
// schedule to 1145 rounds, where some majority votes still lose. The table
// was recorded while the composed program was still compiled over every
// position of its padded line plan; compiling only the BFS tree's depths
// must not change a horizon or a single trial.
func TestGoldenComposedCurveCells(t *testing.T) {
	g, err := ParseGraph("grid:6x6", 0)
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		p                             float64
		override                      int // Config.Rounds
		rounds, lanesSucc, bitsetSucc int
	}{
		{0.10, 0, 325, 512, 64},
		{0.20, 0, 757, 512, 64},
		{0.30, 0, 1909, 512, 64},
		{0.35, 0, 3493, 512, 64},
		{0.30, 1145, 1145, 508, 63},
	}
	for _, run := range []struct {
		core   Core
		trials int
	}{{CoreLanes, 512}, {CoreBitset, 64}} {
		var cells []Config
		for _, c := range golden {
			cells = append(cells, Config{
				Graph: g, Message: []byte("1"), Model: MessagePassing, Fault: LimitedMalicious,
				P: c.p, Algorithm: Composed, Adversary: WorstCase, Rounds: c.override, Core: run.core,
			})
		}
		sp, err := CompileSweep(SweepSpec{Cells: cells, Seed: 7, Budget: CellBudget{Trials: run.trials}})
		if err != nil {
			t.Fatal(err)
		}
		results, err := sp.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range golden {
			plan := sp.Cells()[i].Plan()
			if got := plan.EstimationCore(); got != run.core.String() {
				t.Errorf("cell %d: Core=%s ran on %q", i, run.core, got)
			}
			if got := plan.Rounds(); got != want.rounds {
				t.Errorf("cell %d (p=%v): rounds %d, golden %d", i, want.p, got, want.rounds)
			}
			succ := want.lanesSucc
			if run.core == CoreBitset {
				succ = want.bitsetSucc
			}
			if got := results[i].Estimate; got.Succeeds != succ || got.Trials != run.trials {
				t.Errorf("cell %d (p=%v, %s): got %d/%d, golden %d/%d",
					i, want.p, run.core, got.Succeeds, got.Trials, succ, run.trials)
			}
		}
	}
}
