package main

import (
	"faultcast"
)

// curveHalfWidth is the accuracy every curve-sweep cell is estimated to.
const curveHalfWidth = 0.02

// curveSpec is the threshold-curve grid of the curve-sweep and
// cluster-sweep workloads: success-probability curves across the paper's
// dichotomies at a fixed ±0.02 half-width. The seed only drives the
// sweep's master seed, so every cell's trial stream changes with it while
// the grid's shape (and cost) stays put.
func curveSpec(seed uint64) (faultcast.SweepSpec, error) {
	type family struct {
		graph   string
		model   faultcast.Model
		fault   faultcast.Fault
		windowC float64
		ps      []float64
	}
	star, err := faultcast.ParseGraph("star:4", seed)
	if err != nil {
		return faultcast.SweepSpec{}, err
	}
	line, err := faultcast.ParseGraph("line:8", seed)
	if err != nil {
		return faultcast.SweepSpec{}, err
	}
	around := func(g *faultcast.Graph) []float64 { // p through p*(Δ)
		pStar := faultcast.RadioThreshold(g.MaxDegree())
		return []float64{0.5 * pStar, 0.8 * pStar, 0.95 * pStar, 1.1 * pStar}
	}
	mpMalicious := []float64{0.30, 0.42, 0.50, 0.56} // p through 1/2
	omission := []float64{0.3, 0.5, 0.7, 0.9}
	families := []family{
		// Message passing, malicious, window constant pinned so cells near
		// 1/2 stay affordable (the derived constant diverges there).
		{"grid:6x6", faultcast.MessagePassing, faultcast.Malicious, 3, mpMalicious},
		{"line:32", faultcast.MessagePassing, faultcast.Malicious, 3, mpMalicious},
		// Composed algorithm under limited-malicious failures; its round
		// count grows steeply towards 1/2.
		{"grid:6x6", faultcast.MessagePassing, faultcast.LimitedMalicious, 0, []float64{0.10, 0.20, 0.30, 0.35}},
		// Radio, malicious, worst-case star adversary: the lane-gated
		// bitset core. The window constant is pinned for the same reason.
		{"star:4", faultcast.Radio, faultcast.Malicious, 4, around(star)},
		{"line:8", faultcast.Radio, faultcast.Malicious, 4, around(line)},
		// Omission in both models up to p = 0.9.
		{"grid:6x6", faultcast.MessagePassing, faultcast.Omission, 0, omission},
		{"line:32", faultcast.MessagePassing, faultcast.Omission, 0, omission},
		{"line:16", faultcast.Radio, faultcast.Omission, 0, omission},
		{"star:4", faultcast.Radio, faultcast.Omission, 0, omission},
	}
	var cells []faultcast.Config
	for _, f := range families {
		g, err := faultcast.ParseGraph(f.graph, seed)
		if err != nil {
			return faultcast.SweepSpec{}, err
		}
		for _, p := range f.ps {
			cells = append(cells, faultcast.Config{
				Graph: g, Message: []byte("1"), Model: f.model, Fault: f.fault,
				P: p, WindowC: f.windowC, Adversary: faultcast.WorstCase,
			})
		}
	}
	return faultcast.SweepSpec{
		Cells:  cells,
		Seed:   seed,
		Budget: faultcast.CellBudget{Trials: 4096, HalfWidth: curveHalfWidth},
	}, nil
}

// storeBatch is the top-up increment of store-topup: one 32-trial batch,
// the store's bucket size for un-ruled streams.
const storeBatch = 32

// storeSpec is store-topup's grid: ~300 cheap lane-core omission cells
// with an un-ruled budget, so each top-up step adds exactly one batch per
// cell and a replay step simulates nothing.
func storeSpec(seed uint64, budget int) faultcast.SweepSpec {
	var graphs []faultcast.SweepGraph
	for _, g := range []string{"line:8", "line:12", "ring:8", "ring:12", "grid:3x3", "grid:3x4", "star:6", "star:8", "tree:15:2", "complete:6"} {
		graphs = append(graphs, faultcast.SweepGraph{Spec: g})
	}
	var ps []float64
	for i := 1; i <= 15; i++ {
		ps = append(ps, 0.05*float64(i))
	}
	return faultcast.SweepSpec{
		Graphs: graphs,
		Models: []faultcast.Model{faultcast.MessagePassing, faultcast.Radio},
		Faults: []faultcast.Fault{faultcast.Omission},
		Ps:     ps,
		Seed:   seed,
		Budget: faultcast.CellBudget{Trials: budget},
	}
}
