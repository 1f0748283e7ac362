package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"faultcast"
	"faultcast/internal/exec"
	"faultcast/internal/graph"
	"faultcast/internal/protocol"
	"faultcast/internal/rng"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
)

// Options tunes a harness run.
type Options struct {
	// Trials is the Monte-Carlo sample size per table cell (default 200).
	Trials int
	// Seed is the base seed; every cell derives its own stream from it.
	Seed uint64
	// Quick shrinks graphs and trial counts so the whole suite runs in
	// seconds (used by tests); full-size runs feed EXPERIMENTS.md.
	Quick bool
	// FullTrials disables early stopping: every cell runs all of its
	// trials even after its interval is already decided against the
	// cell's target. Early stopping halts on a band strictly wider than
	// the one the verdict reads, so a stopped cell's displayed verdict is
	// always decided in the stopping direction; for a frontier cell whose
	// true rate sits at the target, the repeated per-batch looks still
	// make a momentarily-decided stop more likely than a single look at
	// the full sample would be, so its verdict can differ from a -full
	// run's. That caveat includes the pinned cells of E3/E5, whose
	// two-sided verdict locks in "not pinned" on a stop (for a truly
	// pinned cell a spurious stop needs a >4-sigma excursion, so they run
	// their full sample in practice). Cells with no pass/fail target —
	// A1's constant sweep, A2's adversary comparison, E6's
	// predicted-value check, and the completion-time tables — never stop
	// early.
	FullTrials bool
	// Progress, if non-nil, receives one line per experiment stage.
	Progress io.Writer
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 200
		if o.Quick {
			o.Trials = 60
		}
	}
	if o.Seed == 0 {
		o.Seed = 0x5eed
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// Experiment is one reproducible unit: a theorem/lemma of the paper mapped
// to a table generator.
type Experiment struct {
	ID    string
	Claim string // the paper statement being exercised
	Run   func(o Options) []*Table
}

// Registry returns all experiments in display order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "E1", Claim: "Thm 2.1: omission failures, any p<1: Simple-Omission is almost-safe in both models", Run: RunE1},
		{ID: "E2", Claim: "Thm 2.2: malicious MP, p<1/2: Simple-Malicious is almost-safe", Run: RunE2},
		{ID: "E3", Claim: "Thm 2.3: malicious MP, p>=1/2: infeasible (equivocator pins error at 1/2)", Run: RunE3},
		{ID: "E4", Claim: "Thm 2.4(<=): malicious radio, p<(1-p)^(Δ+1): Simple-Malicious is almost-safe", Run: RunE4},
		{ID: "E5", Claim: "Thm 2.4(=>): malicious radio, p>=(1-p)^(Δ+1): infeasible (star adversary)", Run: RunE5},
		{ID: "E6", Claim: "§2.2.2 remark: limited malicious on K2: timing protocol works for any p<1", Run: RunE6},
		{ID: "E7", Claim: "Thm 3.1: omission MP: flooding runs in optimal Θ(D+log n)", Run: RunE7},
		{ID: "E8", Claim: "Thm 3.2/Lem 3.2: limited-malicious MP in O(D+log^α n) via CO1/CO2 composition", Run: RunE8},
		{ID: "E9", Claim: "Lem 3.3: layered graph G_m has fault-free radio opt exactly m+1", Run: RunE9},
		{ID: "E10", Claim: "Lem 3.4/Thm 3.3: almost-safe radio on G_m needs ω(opt+log n) steps", Run: RunE10},
		{ID: "E11", Claim: "Thm 3.4: radio, both fault types: almost-safe in O(opt·log n)", Run: RunE11},
		{ID: "A1", Claim: "Ablation: window constant c in m=⌈c·log n⌉ trades time for safety", Run: RunA1},
		{ID: "A2", Claim: "Ablation: adversary strength (crash < noise < flip < equivocator)", Run: RunA2},
		{ID: "A3", Claim: "Ablation: round engine vs lane core equivalence and cost", Run: RunA3},
		{ID: "A4", Claim: "Ablation: synchronized phases vs the unsynchronized sliding-window variant", Run: RunA4},
		{ID: "A5", Claim: "Ablation: anonymous radio schedules (modulo-K / prime powers, §2.1)", Run: RunA5},
		{ID: "A6", Claim: "Ablation: Kučera serial fan-out ρ — time constant vs error exponent", Run: RunA6},
		{ID: "B1", Claim: "Baseline: Thm 3.4 Omission-Radio vs randomized Decay broadcast", Run: RunB1},
		{ID: "F1", Claim: "Figure: informing curves (fraction informed vs round) for flooding and Decay", Run: RunF1},
		{ID: "OP1", Claim: "Open problem 1 probe: MP malicious time — known techniques pay D·log n, not D+log n", Run: RunOP1},
		{ID: "OP2", Claim: "Open problem 2 probe: the radio repetition window cannot shrink below Θ(log n)", Run: RunOP2},
		{ID: "G1", Claim: "Extension (ref [13]): almost-safe gossiping in O(D + log n) under omission faults", Run: RunG1},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment and renders results to w.
func RunAll(o Options, w io.Writer) {
	for _, e := range Registry() {
		fmt.Fprintf(w, "== %s: %s ==\n\n", e.ID, e.Claim)
		for _, t := range e.Run(o) {
			t.Render(w)
			fmt.Fprintln(w)
		}
	}
}

// --- shared helpers -------------------------------------------------------

// msg1 is the canonical experiment payload.
var msg1 = []byte("1")

// newRunner compiles the cell configuration into a reusable engine runner;
// harness configurations are static, so construction errors are bugs.
func newRunner(cfg *sim.Config) *sim.Runner {
	r, err := sim.NewRunner(cfg)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return r
}

// stopRule returns the cell's early-stopping rule: decided against target
// on a Wilson band 30% wider than the verdict's z, so that whenever the
// stream stops, the verdict band (a subset of the stopping band) is
// decided the same way on the executed sample. target < 0, or
// Options.FullTrials, disables stopping.
func (o Options) stopRule(target, z float64) stat.StopRule {
	if o.FullTrials || target < 0 {
		return stat.StopRule{}
	}
	return stat.StopRule{Target: target, UseTarget: true, Z: z * 1.3}
}

// cellSeed derives the trial-stream base seed for a named cell from the
// harness master seed — rng.Derive of (seed, key), the sweep layer's
// scheme, replacing the old o.Seed^cellConst XOR (which correlated cell
// streams with the master and let distinct cells collide).
func (o Options) cellSeed(key string) uint64 {
	return rng.Derive(o.Seed, key)
}

// successRate estimates the success rate of one cell. cfg is compiled
// once (its Seed field is ignored) and every worker streams trials
// through its own reusable runner; the trial stream's base seed derives
// from (o.Seed, cellKey). target >= 0 stops the stream early once the
// interval is decided against it (on a band wider than the 95% verdict
// band; see stopRule).
//
// Experiments expressible through the public API run whole grids at once
// via runSweep instead; this is the path for cells whose protocols or
// scoring the public Config cannot name (custom radio schedules, the
// bit-alternating impossibility trials).
func successRate(o Options, cellKey string, target float64, cfg *sim.Config) stat.Proportion {
	return successRateN(o.Trials, o.cellSeed(cellKey), o.stopRule(target, 1.96), cfg)
}

// successRateN is successRate with an explicit trial count and stop rule.
func successRateN(trials int, baseSeed uint64, rule stat.StopRule, cfg *sim.Config) stat.Proportion {
	return estimateCell(trials, baseSeed, rule, func() stat.Trial {
		r := newRunner(cfg)
		return func(seed uint64) bool {
			res, err := r.Run(seed)
			if err != nil {
				panic(fmt.Sprintf("harness: %v", err))
			}
			return res.Success
		}
	})
}

// estimateCell schedules one estimation cell on the shared scheduler —
// every harness estimate now rides internal/exec, the same machinery as
// Plan.Estimate and SweepPlan.Run.
func estimateCell(trials int, baseSeed uint64, rule stat.StopRule, mk stat.TrialMaker) stat.Proportion {
	return exec.EstimateCell(0, exec.Cell{
		MaxTrials: trials, BaseSeed: baseSeed, Rule: rule, NewTrial: mk,
	})
}

// runSweep compiles and runs a declarative grid on one shared worker
// pool, returning estimates in cell (cross-product) order. Harness grids
// are static, so compile errors are bugs.
func runSweep(spec faultcast.SweepSpec) []faultcast.CellResult {
	sp, err := faultcast.CompileSweep(spec)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	res, err := sp.Collect(context.Background())
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return res
}

// sweepBudget is the per-cell budget matching this Options: o.Trials
// trials, stopped early against the almost-safe bound (on the
// verdict-band × 1.3 stopping band stopRule uses) unless almostSafe is
// false or FullTrials disables stopping.
func (o Options) sweepBudget(almostSafe bool) faultcast.CellBudget {
	b := faultcast.CellBudget{Trials: o.Trials}
	if almostSafe && !o.FullTrials {
		b.AlmostSafe = true
		b.Z = 1.96 * 1.3
	}
	return b
}

// bitTrial returns a per-worker trial stream for the impossibility cells,
// whose trials alternate the broadcast bit by seed parity. mk compiles one
// configuration per bit (called twice, up front); mapSeed maps the trial
// seed to the run seed; won scores a run given the bit that was sent.
func bitTrial(mk func(msg []byte) *sim.Config, mapSeed func(uint64) uint64, won func(res *sim.Result, msg []byte) bool) stat.TrialMaker {
	cfg0, cfg1 := mk([]byte("0")), mk([]byte("1"))
	return func() stat.Trial {
		r0, r1 := newRunner(cfg0), newRunner(cfg1)
		return func(seed uint64) bool {
			r, msg := r0, cfg0.SourceMsg
			if seed&1 == 1 {
				r, msg = r1, cfg1.SourceMsg
			}
			res, err := r.Run(mapSeed(seed))
			if err != nil {
				panic(fmt.Sprintf("harness: %v", err))
			}
			return won(res, msg)
		}
	}
}

// completionMeasure adapts one cell to stat.MeanStdWith: each worker owns a
// reusable runner; a trial yields its completion time (rounds) on success.
func completionMeasure(cfg *sim.Config) func() stat.Measure {
	return func() stat.Measure {
		r := newRunner(cfg)
		return func(seed uint64) (float64, bool) {
			res, err := r.Run(seed)
			if err != nil {
				panic(fmt.Sprintf("harness: %v", err))
			}
			if !res.Success {
				return 0, false
			}
			return float64(res.CompletedRound + 1), true
		}
	}
}

// almostSafe is the paper's target success probability for an n-node graph.
func almostSafe(n int) float64 { return 1 - 1/float64(n) }

// omissionWindowC and maliciousWindowC alias the shared window-constant
// derivations in internal/protocol (see WindowCOmission/WindowCMalicious).
func omissionWindowC(p float64) float64  { return protocol.WindowCOmission(p) }
func maliciousWindowC(q float64) float64 { return protocol.WindowCMalicious(q) }

// graphSet returns the standard experiment graphs, scaled down in Quick
// mode. Each entry carries its broadcast source.
type namedGraph struct {
	g   *graph.Graph
	src int
}

// sweepGraphs lifts the harness graph set onto the sweep API's graph axis.
func sweepGraphs(ngs []namedGraph) []faultcast.SweepGraph {
	out := make([]faultcast.SweepGraph, len(ngs))
	for i, ng := range ngs {
		out[i] = faultcast.SweepGraph{Graph: ng.g, Source: ng.src}
	}
	return out
}

func standardGraphs(o Options) []namedGraph {
	if o.Quick {
		return []namedGraph{
			{graph.Line(16), 0},
			{graph.KaryTree(15, 2), 0},
			{graph.Grid(4, 4), 0},
		}
	}
	return []namedGraph{
		{graph.Line(64), 0},
		{graph.KaryTree(63, 2), 0},
		{graph.Grid(8, 8), 0},
		{graph.Star(32), 1},
	}
}

func pow(x float64, y int) float64 { return math.Pow(x, float64(y)) }

func ln(x float64) float64 { return math.Log(x) }

// sortedKeys returns map keys in sorted order (determinism for tables).
func sortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
