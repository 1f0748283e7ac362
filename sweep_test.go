package faultcast

import (
	"context"
	"testing"
	"time"
)

func feasibilitySpec(seed uint64) SweepSpec {
	return SweepSpec{
		Graphs: []SweepGraph{
			{Spec: "line:12"},
			{Graph: Star(8), Source: 1},
		},
		Models:     []Model{MessagePassing, Radio},
		Faults:     []Fault{Omission},
		Algorithms: []Algorithm{SimpleOmission},
		Ps:         []float64{0.3, 0.6},
		Seed:       seed,
		Budget:     CellBudget{Trials: 200, AlmostSafe: true},
	}
}

// TestSweepExpansionOrder: cells must come out in the documented
// cross-product order (Graphs, Models, ..., Ps innermost) with correct
// axis values, keys, and derived seeds.
func TestSweepExpansionOrder(t *testing.T) {
	sp, err := CompileSweep(feasibilitySpec(7))
	if err != nil {
		t.Fatal(err)
	}
	cells := sp.Cells()
	if len(cells) != 2*2*2 {
		t.Fatalf("expanded %d cells, want 8", len(cells))
	}
	// Index arithmetic: ((graph*models)+model)*ps + p.
	for gi, wantN := range []int{12, 8} {
		for mi, wantModel := range []Model{MessagePassing, Radio} {
			for pi, wantP := range []float64{0.3, 0.6} {
				c := cells[(gi*2+mi)*2+pi]
				if c.Config.Graph.N() != wantN || c.Config.Model != wantModel || c.Config.P != wantP {
					t.Fatalf("cell %d: got (n=%d, %v, p=%v), want (n=%d, %v, p=%v)",
						c.Index, c.Config.Graph.N(), c.Config.Model, c.Config.P, wantN, wantModel, wantP)
				}
			}
		}
	}
	seeds := map[uint64]bool{}
	keys := map[string]bool{}
	for i := range cells {
		c := &cells[i]
		if c.Config.Seed == 0 || seeds[c.Config.Seed] {
			t.Fatalf("cell %d: bad or duplicate derived seed %d", i, c.Config.Seed)
		}
		seeds[c.Config.Seed] = true
		if keys[c.Key] {
			t.Fatalf("cell %d: duplicate key", i)
		}
		keys[c.Key] = true
		if c.Rounds() <= 0 {
			t.Fatalf("cell %d: no compiled horizon", i)
		}
	}
	// Star source must have survived expansion.
	if cells[4].Config.Source != 1 {
		t.Fatalf("star cells lost their source: %d", cells[4].Config.Source)
	}
}

// TestSweepSharesPlans: cells differing only in p compile distinct plans,
// but duplicate scenarios (and per-cell seeds) must share one.
func TestSweepSharesPlans(t *testing.T) {
	spec := SweepSpec{
		Graphs:     []SweepGraph{{Spec: "line:10"}},
		Algorithms: []Algorithm{SimpleOmission},
		Ps:         []float64{0.3, 0.3, 0.5}, // deliberate duplicate axis value
		Seed:       1,
		Budget:     CellBudget{Trials: 50},
	}
	sp, err := CompileSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sp.PlanCount() != 2 {
		t.Fatalf("compiled %d plans for 2 distinct scenarios", sp.PlanCount())
	}
	cells := sp.Cells()
	if cells[0].PlanKey != cells[1].PlanKey || cells[0].Key != cells[1].Key {
		t.Fatal("duplicate cells did not share plan/key")
	}
	if cells[0].Plan() != cells[1].Plan() {
		t.Fatal("duplicate cells hold distinct plan pointers")
	}
	res, err := sp.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Estimate != res[1].Estimate {
		t.Fatalf("duplicate cells diverged: %+v vs %+v", res[0].Estimate, res[1].Estimate)
	}
}

// TestSweepCellPrev: a prior estimate that satisfies the budget must
// answer the cell with zero new trials; a short one must be topped up by
// exactly the marginal trials, continuing its seed sequence.
func TestSweepCellPrev(t *testing.T) {
	spec := SweepSpec{
		Graphs:     []SweepGraph{{Spec: "line:8"}},
		Algorithms: []Algorithm{Flooding},
		Ps:         []float64{0.2},
		Seed:       3,
		Budget:     CellBudget{Trials: 100},
	}
	sp, err := CompileSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sp.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if full[0].Estimate.Trials != 100 || full[0].Resumed != 0 {
		t.Fatalf("baseline run off: %+v", full[0])
	}

	// Prior covering the whole budget: zero simulation.
	cached, err := sp.Collect(context.Background(), WithCellPrev(func(c *SweepCell) (Estimate, bool) {
		return full[0].Estimate, true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if cached[0].Estimate != full[0].Estimate || cached[0].Resumed != 100 {
		t.Fatalf("cached cell re-simulated: %+v", cached[0])
	}

	// Short prior (the first 40 trials of the same stream): the top-up
	// must land on the identical final estimate.
	prefix, err := sp.Cells()[0].Plan().Estimate(40, WithBaseSeed(sp.Cells()[0].Config.Seed))
	if err != nil {
		t.Fatal(err)
	}
	refined, err := sp.Collect(context.Background(), WithCellPrev(func(c *SweepCell) (Estimate, bool) {
		return prefix, true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if refined[0].Resumed != 40 {
		t.Fatalf("resumed %d trials, want 40", refined[0].Resumed)
	}
	if refined[0].Estimate != full[0].Estimate {
		t.Fatalf("refinement diverged: %+v vs %+v", refined[0].Estimate, full[0].Estimate)
	}
}

// TestSweepExplicitCells: the Cells escape hatch must honor per-cell
// parameters that co-vary (window constants tied to p) and still derive
// seeds from the sweep seed, ignoring any Config.Seed given.
func TestSweepExplicitCells(t *testing.T) {
	g := Line(8)
	spec := SweepSpec{
		Cells: []Config{
			{Graph: g, Message: []byte("1"), Model: MessagePassing, Fault: Omission, P: 0.3, Algorithm: SimpleOmission, WindowC: 2, Seed: 999},
			{Graph: g, Message: []byte("1"), Model: MessagePassing, Fault: Omission, P: 0.6, Algorithm: SimpleOmission, WindowC: 4, Seed: 999},
		},
		Seed:   11,
		Budget: CellBudget{Trials: 60},
	}
	sp, err := CompileSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := sp.Cells()
	if cells[0].Config.Seed == 999 || cells[1].Config.Seed == 999 {
		t.Fatal("explicit cell seed was not overridden by derivation")
	}
	if cells[0].Config.WindowC != 2 || cells[1].Config.WindowC != 4 {
		t.Fatal("explicit cell parameters lost")
	}
	if _, err := sp.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSweepCancellation: a cancelled context must abort the run with its
// error.
func TestSweepCancellation(t *testing.T) {
	spec := feasibilitySpec(5)
	spec.Budget = CellBudget{Trials: 1 << 20} // far more work than a test should do
	sp, err := CompileSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = sp.Run(ctx, func(CellResult) {})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCompileSweepRejects: structural errors must surface at compile
// time, not mid-run.
func TestCompileSweepRejects(t *testing.T) {
	bad := []SweepSpec{
		{Ps: []float64{0.5}},                                         // no graphs
		{Graphs: []SweepGraph{{Spec: "line:8"}}},                     // no ps
		{Graphs: []SweepGraph{{Spec: "nope:8"}}, Ps: []float64{0.5}}, // bad spec
		{Graphs: []SweepGraph{{Spec: "line:8"}}, Ps: []float64{1.5}}, // p out of range
		{Graphs: []SweepGraph{{Spec: "line:8"}}, Ps: []float64{0.5}, // model mismatch
			Models: []Model{Radio}, Algorithms: []Algorithm{Flooding}},
	}
	for i, spec := range bad {
		if _, err := CompileSweep(spec); err == nil {
			t.Fatalf("case %d: CompileSweep accepted invalid spec", i)
		}
	}
}
