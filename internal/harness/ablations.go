package harness

import (
	"fmt"
	"slices"
	"time"

	"faultcast"
	"faultcast/internal/adversary"
	"faultcast/internal/graph"
	"faultcast/internal/protocols/simplemalicious"
	"faultcast/internal/protocols/simpleomission"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
)

// RunA1 sweeps the window constant c: the knob every Section-2 algorithm
// turns. Success must rise monotonically (in expectation) with c, and the
// running time grows linearly in it — the time/safety trade the paper's
// "suitable constant c" hides. The grid is a declarative sweep along the
// WindowCs axis with no early stopping (the curve itself is the content).
func RunA1(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "A1 — window constant sweep: Simple-Omission on line(32), p = 0.5",
		Note:    "m = ceil(c·log n): success rises with c, time rises linearly; c ≈ 2/log2(1/p) is the paper's break-even",
		Headers: []string{"c", "m", "rounds", "success", "95% CI"},
	}
	g := graph.Line(32)
	if o.Quick {
		g = graph.Line(16)
	}
	cs := []float64{0.25, 0.5, 1, 2, 4, 8}
	results := runSweep(faultcast.SweepSpec{
		Graphs:     []faultcast.SweepGraph{{Graph: g}},
		Algorithms: []faultcast.Algorithm{faultcast.SimpleOmission},
		WindowCs:   cs,
		Ps:         []float64{0.5},
		Seed:       o.Seed,
		Budget:     o.sweepBudget(false),
	})
	for i, c := range cs {
		proto := simpleomission.New(g, 0, sim.MessagePassing, c)
		est := results[i].Estimate
		t.AddRow(c, proto.WindowLen(), results[i].Cell.Rounds(), est.Rate,
			fmt.Sprintf("[%.3f,%.3f]", est.Low, est.Hi))
		o.logf("A1 c=%v: %v", c, est)
	}
	return []*Table{t}
}

// RunA2 compares adversary strategies at the p = 1/2 threshold on K2: the
// proof-strategy equivocator is the unique strategy that pins the receiver
// at a coin flip; weaker strategies leave majority voting a way to win.
func RunA2(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "A2 — adversary strength at p = 0.5 on K2 (Simple-Malicious, c = 16)",
		Note:    "only the equivocator realizes the Theorem 2.3 bound; crash/noise/flip leave exploitable signal",
		Headers: []string{"adversary", "success", "95% CI"},
	}
	g := graph.TwoNode()
	proto := simplemalicious.New(g, 0, sim.MessagePassing, 16)
	advs := []struct {
		name string
		mk   func() sim.Adversary
	}{
		{"crash (silence)", func() sim.Adversary { return adversary.Crash{} }},
		{"random noise", func() sim.Adversary { return adversary.RandomNoise{Alphabet: [][]byte{{'0'}, {'1'}}} }},
		{"flip to wrong", func() sim.Adversary { return adversary.Flip{Wrong: []byte("0")} }},
		{"equivocator", func() sim.Adversary {
			return adversary.Equivocator{M0: []byte("0"), M1: []byte("1"), SourceOnly: true}
		}},
	}
	for _, a := range advs {
		// Comparison rates are the content — run the full sample.
		est := estimateCell(o.Trials*4, o.cellSeed("A2|"+a.name), stat.StopRule{},
			bitTrial(func(msg []byte) *sim.Config {
				return &sim.Config{
					Graph: g, Model: sim.MessagePassing, Fault: sim.Malicious, P: 0.5,
					Source: 0, SourceMsg: msg,
					NewNode: proto.NewNode, Rounds: proto.Rounds(),
					Adversary: a.mk(),
				}
			}, func(seed uint64) uint64 { return seed * 2654435761 },
				func(res *sim.Result, _ []byte) bool { return res.Success }))
		lo, hi := est.Wilson(1.96)
		t.AddRow(a.name, est.Rate(), fmt.Sprintf("[%.3f,%.3f]", lo, hi))
		o.logf("A2 %s: %v", a.name, est)
	}
	return []*Table{t}
}

// RunA3 checks the two production estimation cores against each other:
// the auto plan estimates on the lane core, its Plan.Run runs the bitset
// round engine, and the two must agree on every per-trial verdict; the
// table reports their cost ratio.
func RunA3(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "A3 — round engine vs lane core",
		Note:    "per-trial verdicts must be bit-identical (same seeds: Plan.Run per seed against TallyShard at batch 1, one worker); ratio = round engine time / lane core time, where the round engine time includes Plan.Run's per-run setup (a fresh engine state per seed)",
		Headers: []string{"graph", "trials", "identical", "bitset time", "lanes time", "ratio", "verdict"},
	}
	graphs := []namedGraph{{graph.Grid(6, 6), 0}, {graph.Line(48), 0}}
	if o.Quick {
		graphs = []namedGraph{{graph.Grid(4, 4), 0}}
	}
	trials := o.Trials * 4
	for _, ng := range graphs {
		plan, err := faultcast.Compile(faultcast.Config{
			Graph: ng.g, Source: ng.src, Message: msg1,
			Model: faultcast.MessagePassing, Fault: faultcast.Omission, P: 0.4,
			Algorithm: faultcast.SimpleOmission, WindowC: 2,
		})
		if err != nil {
			panic(fmt.Sprintf("harness: A3: %v", err))
		}
		if core := plan.EstimationCore(); core != "lanes" {
			panic(fmt.Sprintf("harness: A3 estimates on %s, want lanes", core))
		}
		start := time.Now()
		lanes := plan.TallyShard(o.Seed, trials, 1, 1)
		laneDur := time.Since(start)
		bit := make([]int, trials)
		start = time.Now()
		for i := range bit {
			res, err := plan.Run(o.Seed + uint64(i))
			if err != nil {
				panic(fmt.Sprintf("harness: A3 run: %v", err))
			}
			if res.Success {
				bit[i] = 1
			}
		}
		bitDur := time.Since(start)
		identical := slices.Equal(bit, lanes.Successes)
		ratio := float64(bitDur) / float64(laneDur)
		t.AddRow(ng.g.Name(), trials, identical,
			bitDur.Round(time.Microsecond).String(), laneDur.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", ratio), verdict(identical))
		o.logf("A3 %s: identical=%v ratio=%.1f", ng.g.Name(), identical, ratio)
	}
	return []*Table{t}
}
