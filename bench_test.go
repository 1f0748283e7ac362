// Benchmarks: one per experiment in DESIGN.md's index (E1–E11, A1–A3).
// Each benchmark times the representative workload of its experiment —
// a full broadcast simulation per iteration — so `go test -bench=. `
// regenerates the cost side of every paper-shaped result. The statistical
// side (success rates, thresholds, fits) is produced by cmd/experiments
// and recorded in EXPERIMENTS.md.
package faultcast_test

import (
	"context"
	"sync/atomic"
	"testing"

	"faultcast"
	"faultcast/internal/adversary"
	"faultcast/internal/exec"
	"faultcast/internal/graph"
	"faultcast/internal/harness"
	"faultcast/internal/kucera"
	"faultcast/internal/lowerbound"
	"faultcast/internal/protocols/decay"
	"faultcast/internal/protocols/flooding"
	"faultcast/internal/protocols/gossip"
	"faultcast/internal/protocols/radiorepeat"
	"faultcast/internal/protocols/simplemalicious"
	"faultcast/internal/protocols/simpleomission"
	"faultcast/internal/radio"
	"faultcast/internal/rng"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
	"faultcast/internal/telemetry"
)

// runCfg executes one simulation per iteration with rotating seeds.
func runCfg(b *testing.B, mk func(seed uint64) *sim.Config) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(mk(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1SimpleOmission times Theorem 2.1's algorithm: one phase per
// node, m steps per phase, on a 64-node tree at p = 0.5 (message passing).
func BenchmarkE1SimpleOmission(b *testing.B) {
	g := graph.KaryTree(63, 2)
	proto := simpleomission.New(g, 0, sim.MessagePassing, 2.5)
	runCfg(b, func(seed uint64) *sim.Config {
		return &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.Omission, P: 0.5,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: seed,
		}
	})
}

// BenchmarkE1SimpleOmissionRadio is the radio-model side of Theorem 2.1.
func BenchmarkE1SimpleOmissionRadio(b *testing.B) {
	g := graph.KaryTree(63, 2)
	proto := simpleomission.New(g, 0, sim.Radio, 2.5)
	runCfg(b, func(seed uint64) *sim.Config {
		return &sim.Config{
			Graph: g, Model: sim.Radio, Fault: sim.Omission, P: 0.5,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: seed,
		}
	})
}

// BenchmarkE2SimpleMalicious times Theorem 2.2's voting algorithm under a
// worst-case flipping adversary at p = 0.3.
func BenchmarkE2SimpleMalicious(b *testing.B) {
	g := graph.KaryTree(31, 2)
	proto := simplemalicious.New(g, 0, sim.MessagePassing, 12)
	runCfg(b, func(seed uint64) *sim.Config {
		return &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.Malicious, P: 0.3,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: seed,
			Adversary: adversary.Flip{Wrong: []byte("0")},
		}
	})
}

// BenchmarkE2SimpleMaliciousLanes is the lane-core twin of
// BenchmarkE2SimpleMalicious: the same scenario (KaryTree(31,2), p = 0.3,
// window constant 12, flip adversary) as one estimateTrials-trial
// Plan.Estimate on the trial-parallel core, where each round's single
// transmitter is the only live word of the fault sampler.
func BenchmarkE2SimpleMaliciousLanes(b *testing.B) {
	benchEstimateOn(b, faultcast.Config{
		Graph: faultcast.KaryTree(31, 2), Source: 0, Message: []byte("1"),
		Model: faultcast.MessagePassing, Fault: faultcast.Malicious, P: 0.3,
		WindowC: 12, Algorithm: faultcast.SimpleMalicious, Adversary: faultcast.FlipAdv,
	}, "lanes")
}

// BenchmarkE3Equivocator times the Theorem 2.3 impossibility workload: the
// history-free equivocating adversary on K2 at p = 1/2.
func BenchmarkE3Equivocator(b *testing.B) {
	g := graph.TwoNode()
	proto := simplemalicious.New(g, 0, sim.MessagePassing, 32)
	runCfg(b, func(seed uint64) *sim.Config {
		msg := []byte("0")
		if seed&1 == 1 {
			msg = []byte("1")
		}
		return &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.Malicious, P: 0.5,
			Source: 0, SourceMsg: msg,
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: seed,
			Adversary: adversary.Equivocator{M0: []byte("0"), M1: []byte("1"), SourceOnly: true},
		}
	})
}

// BenchmarkE4RadioFeasible times Theorem 2.4's feasible side: radio
// Simple-Malicious below the (1-p)^(Δ+1) threshold on a line.
func BenchmarkE4RadioFeasible(b *testing.B) {
	g := graph.Line(16)
	p := faultcast.RadioThreshold(g.MaxDegree()) * 0.5
	proto := simplemalicious.New(g, 0, sim.Radio, 10)
	runCfg(b, func(seed uint64) *sim.Config {
		return &sim.Config{
			Graph: g, Model: sim.Radio, Fault: sim.Malicious, P: p,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: seed,
			Adversary: adversary.Flip{Wrong: []byte("0")},
		}
	})
}

// BenchmarkE5RadioImpossible times the Theorem 2.4 star adversary at the
// threshold fixed point.
func BenchmarkE5RadioImpossible(b *testing.B) {
	g := graph.Star(6)
	p := faultcast.RadioThreshold(g.MaxDegree())
	proto := simplemalicious.New(g, 1, sim.Radio, 8)
	runCfg(b, func(seed uint64) *sim.Config {
		return &sim.Config{
			Graph: g, Model: sim.Radio, Fault: sim.Malicious, P: p,
			Source: 1, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: seed,
			Adversary: adversary.Star{M0: []byte("0"), M1: []byte("1")},
		}
	})
}

// BenchmarkE5RadioImpossibleLanes is the lane-core twin of
// BenchmarkE5RadioImpossible: the star adversary on Star(6) at p*(Δ) as
// one estimateTrials-trial Plan.Estimate on the trial-parallel core
// (LaneStar: every vertex live, S-step swaps and third-symbol jams).
func BenchmarkE5RadioImpossibleLanes(b *testing.B) {
	g := faultcast.Star(6)
	benchEstimateOn(b, faultcast.Config{
		Graph: g, Source: 1, Message: []byte("1"),
		Model: faultcast.Radio, Fault: faultcast.Malicious, P: faultcast.RadioThreshold(g.MaxDegree()),
		WindowC: 8, Algorithm: faultcast.SimpleMalicious, Adversary: faultcast.WorstCase,
	}, "lanes")
}

// BenchmarkE6HelloProtocol times the two-node timing protocol at p = 0.7.
func BenchmarkE6HelloProtocol(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := faultcast.Run(faultcast.Config{
			Graph: faultcast.TwoNode(), Source: 0, Message: []byte("0"),
			Model: faultcast.MessagePassing, Fault: faultcast.LimitedMalicious,
			P: 0.7, Algorithm: faultcast.TimingBit, Adversary: faultcast.CrashAdv,
			WindowC: 64, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7FloodTime times the Θ(D + log n) flood of Theorem 3.1 on a
// 256-node line at p = 0.5 with completion tracking (the timing
// experiment's exact workload).
func BenchmarkE7FloodTime(b *testing.B) {
	g := graph.Line(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := faultcast.Run(faultcast.Config{
			Graph: g, Source: 0, Message: []byte("1"),
			Model: faultcast.MessagePassing, Fault: faultcast.Omission,
			P: 0.5, Algorithm: faultcast.Flooding, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkE8Kucera times the composed CO1/CO2 algorithm (Theorem 3.2) on
// a 33-node line at p = 0.2, including plan compilation amortized out.
func BenchmarkE8Kucera(b *testing.B) {
	g := graph.Line(33)
	plan, err := kucera.BuildPlan(32, 0.2, kucera.Options{})
	if err != nil {
		b.Fatal(err)
	}
	proto, err := kucera.New(g, 0, plan)
	if err != nil {
		b.Fatal(err)
	}
	runCfg(b, func(seed uint64) *sim.Config {
		return &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.LimitedMalicious, P: 0.2,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: seed,
			Adversary: adversary.Flip{Wrong: []byte("0")},
		}
	})
}

// BenchmarkE8PlanCompile times plan construction + compilation alone.
func BenchmarkE8PlanCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan, err := kucera.BuildPlan(64, 0.2, kucera.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := kucera.Compile(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileSweepComposed times CompileSweep on the four Composed
// cells of perfbench's curve-sweep grid (grid:6x6, limited-malicious
// faults, p ∈ {0.10, 0.20, 0.30, 0.35}): every hot sweep pass recompiles
// them, so this row is the Composed share of a warm sweep's compile cost.
func BenchmarkCompileSweepComposed(b *testing.B) {
	g := faultcast.Grid(6, 6)
	var cells []faultcast.Config
	for _, p := range []float64{0.10, 0.20, 0.30, 0.35} {
		cells = append(cells, faultcast.Config{
			Graph: g, Message: []byte("1"), Model: faultcast.MessagePassing,
			Fault: faultcast.LimitedMalicious, P: p, Adversary: faultcast.WorstCase,
		})
	}
	spec := faultcast.SweepSpec{Cells: cells, Seed: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := faultcast.CompileSweep(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTallyShardComposed times what one cluster shard costs a worker
// once its plan is cached: a 96-trial, batch-32 TallyShard on 2 workers
// of the curve-sweep cell grid:6x6, limited-malicious Composed, p = 0.3.
// The plan lends its lane runners to every call, so after warm-up a shard
// builds no engine state and allocates only its scheduler and tally.
func BenchmarkTallyShardComposed(b *testing.B) {
	plan, err := faultcast.Compile(faultcast.Config{
		Graph: faultcast.Grid(6, 6), Message: []byte("1"), Model: faultcast.MessagePassing,
		Fault: faultcast.LimitedMalicious, P: 0.3, Adversary: faultcast.WorstCase,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := plan.TallyShard(uint64(i)*96, 96, 32, 2); t.Trials != 96 {
			b.Fatal("short shard")
		}
	}
}

// BenchmarkE9LayeredOpt times the Lemma 3.3 exhaustive optimum search on
// G_3 (n = 11; the largest exhaustively tractable instance).
func BenchmarkE9LayeredOpt(b *testing.B) {
	g := graph.Layered(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt, err := radio.OptimalLength(g, 0)
		if err != nil || opt != 4 {
			b.Fatalf("opt=%d err=%v", opt, err)
		}
	}
}

// BenchmarkE10LowerBound times the Lemma 3.4 hit-count audit: covering
// G_10's 1023 labels with the geometric sweep family.
func BenchmarkE10LowerBound(b *testing.B) {
	const m = 10
	need, _ := lowerbound.RequiredLength(m, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		steps := lowerbound.StepsToCover(need, 1<<18, func(k int) *lowerbound.Schedule {
			return lowerbound.GeometricSweep(m, k, rng.New(uint64(i)))
		})
		if steps <= m+1 {
			b.Fatal("implausible coverage")
		}
	}
}

// BenchmarkE11RadioRepeat times Theorem 3.4's Malicious-Radio on the
// layered graph (schedule length opt = m+1, each step repeated m times).
func BenchmarkE11RadioRepeat(b *testing.B) {
	g := graph.Layered(4)
	sched := radio.LayeredSchedule(4)
	p := faultcast.RadioThreshold(g.MaxDegree()) * 0.5
	proto, err := radiorepeat.New(g, 0, sched, radiorepeat.MaliciousVariant, 8)
	if err != nil {
		b.Fatal(err)
	}
	runCfg(b, func(seed uint64) *sim.Config {
		return &sim.Config{
			Graph: g, Model: sim.Radio, Fault: sim.Malicious, P: p,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: seed,
			Adversary: adversary.Flip{Wrong: []byte("0")},
		}
	})
}

// BenchmarkA1WindowSweep times the ablation's unit of work: one
// Simple-Omission run per window constant.
func BenchmarkA1WindowSweep(b *testing.B) {
	g := graph.Line(32)
	cs := []float64{0.5, 2, 8}
	protos := make([]*simpleomission.Proto, len(cs))
	for i, c := range cs {
		protos[i] = simpleomission.New(g, 0, sim.MessagePassing, c)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		proto := protos[i%len(protos)]
		cfg := &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.Omission, P: 0.5,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: uint64(i),
		}
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA2AdversaryStrength times one run against each adversary kind.
func BenchmarkA2AdversaryStrength(b *testing.B) {
	g := graph.TwoNode()
	proto := simplemalicious.New(g, 0, sim.MessagePassing, 16)
	advs := []sim.Adversary{
		adversary.Crash{},
		adversary.RandomNoise{},
		adversary.Flip{Wrong: []byte("0")},
		adversary.Equivocator{M0: []byte("0"), M1: []byte("1"), SourceOnly: true},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.Malicious, P: 0.5,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: uint64(i),
			Adversary: advs[i%len(advs)],
		}
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA3SequentialEngine times one fresh round-engine run per seed on
// a grid flood under omission at p = 0.4.
func BenchmarkA3SequentialEngine(b *testing.B) {
	g := graph.Grid(8, 8)
	proto := simpleomission.New(g, 0, sim.MessagePassing, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.Omission, P: 0.4,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: uint64(i),
		}
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkB1Decay times the randomized Decay baseline on a 25-node grid
// at p = 0.5 (the B1 comparison workload).
func BenchmarkB1Decay(b *testing.B) {
	g := graph.Grid(5, 5)
	proto := decay.New(g)
	runCfg(b, func(seed uint64) *sim.Config {
		return &sim.Config{
			Graph: g, Model: sim.Radio, Fault: sim.Omission, P: 0.5,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(100), Seed: seed,
		}
	})
}

// BenchmarkF1InformingCurve times one completion-tracked flooding run on
// line(128) (the F1 figure workload: per-node informing rounds recorded).
func BenchmarkF1InformingCurve(b *testing.B) {
	g := graph.Line(128)
	proto := flooding.New(g, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.Omission, P: 0.5,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(8), Seed: uint64(i),
			TrackCompletion: true,
		}
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.InformedRound) != g.N() {
			b.Fatal("informing rounds missing")
		}
	}
}

// BenchmarkG1Gossip times the gossiping extension on grid(6x6) at p=0.5.
func BenchmarkG1Gossip(b *testing.B) {
	g := graph.Grid(6, 6)
	proto := gossip.New(g, 0)
	full := gossip.FullDigest(g.N())
	runCfg(b, func(seed uint64) *sim.Config {
		return &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.Omission, P: 0.5,
			Source: 0, SourceMsg: full,
			NewNode: proto.NewNode, Rounds: proto.Rounds(6), Seed: seed,
		}
	})
}

// BenchmarkHarnessQuick times a full quick-mode harness pass of the
// feasibility experiments (the CI smoke workload).
func BenchmarkHarnessQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := harness.Options{Quick: true, Trials: 20, Seed: uint64(i + 1)}
		harness.RunE1(o)
	}
}

// --- compile-once plans vs the per-trial seed path -----------------------
//
// The pairs below measure the tentpole: BenchmarkEstimateSeed* rebuilds
// the scenario for every trial (the pre-Plan EstimateSuccess behaviour:
// Kučera plan / greedy radio schedule / BFS tree / protocol state per
// trial), while BenchmarkEstimatePlan* compiles once and streams trials
// through per-worker reusable engine states. One iteration = one
// estimateTrials-trial estimate of the same scenario.

const estimateTrials = 64

func composedCfg() faultcast.Config {
	return faultcast.Config{
		Graph: faultcast.Line(33), Source: 0, Message: []byte("1"),
		Model: faultcast.MessagePassing, Fault: faultcast.LimitedMalicious,
		P: 0.2, Algorithm: faultcast.Composed, Adversary: faultcast.FlipAdv,
	}
}

func radioRepeatCfg() faultcast.Config {
	return faultcast.Config{
		Graph: faultcast.Layered(4), Source: 0, Message: []byte("1"),
		Model: faultcast.Radio, Fault: faultcast.Omission,
		P: 0.4, Algorithm: faultcast.RadioRepeat,
	}
}

// benchEstimateSeedPath reproduces the seed repository's estimator: every
// trial re-runs the full Config lowering (faultcast.Run compiles a fresh
// plan per call).
func benchEstimateSeedPath(b *testing.B, cfg faultcast.Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prop := stat.Estimate(estimateTrials, uint64(i), func(seed uint64) bool {
			c := cfg
			c.Seed = seed
			res, err := faultcast.Run(c)
			if err != nil {
				panic(err)
			}
			return res.Success
		})
		if prop.Trials != estimateTrials {
			b.Fatal("short estimate")
		}
	}
}

func benchEstimatePlan(b *testing.B, cfg faultcast.Config) { benchEstimateOn(b, cfg, "auto") }

// benchEstimateOn is benchEstimatePlan with the estimation forced onto
// core ("lanes" or "bitset"), for the paired core benchmarks.
func benchEstimateOn(b *testing.B, cfg faultcast.Config, core string) {
	plan, err := faultcast.CompileOn(cfg, core)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := plan.Estimate(estimateTrials, faultcast.WithBaseSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if est.Trials != estimateTrials {
			b.Fatal("short estimate")
		}
	}
}

func BenchmarkEstimateSeedComposed(b *testing.B) { benchEstimateSeedPath(b, composedCfg()) }
func BenchmarkEstimatePlanComposed(b *testing.B) { benchEstimatePlan(b, composedCfg()) }

func BenchmarkEstimateSeedRadioRepeat(b *testing.B) { benchEstimateSeedPath(b, radioRepeatCfg()) }
func BenchmarkEstimatePlanRadioRepeat(b *testing.B) { benchEstimatePlan(b, radioRepeatCfg()) }

// --- lane-transposed trial-parallel core vs the bitset round core --------
//
// The *Lanes/*BitsetCore pairs pin the trial-parallel tentpole: the same
// Estimate workload with the core forced either to the lane engine (64
// trials per machine word) or to the word-parallel-per-round bitset
// engine it supersedes on this path. Compile already picks lanes for
// these scenarios, so the unsuffixed EstimatePlan benchmarks above track
// the default-path number; the explicit pair keeps the speedup measurable
// even as defaults move.

func BenchmarkEstimatePlanComposedLanes(b *testing.B) {
	benchEstimateOn(b, composedCfg(), "lanes")
}

// BenchmarkEstimatePlanComposedLanesHalfWidth is the ruled-estimate twin
// of BenchmarkEstimatePlanComposedLanes: the same 64 trials under a
// half-width rule too tight to stop them early, so they fold in the rule's
// default 32-trial batches and every lane block is clipped to a half block
// — the shape every threshold-curve cell runs at. A partial block samples
// only its own lanes, so the pair should cost about the same.
func BenchmarkEstimatePlanComposedLanesHalfWidth(b *testing.B) {
	plan, err := faultcast.CompileOn(composedCfg(), "lanes")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := plan.Estimate(estimateTrials, faultcast.WithBaseSeed(uint64(i)), faultcast.WithHalfWidth(0.001))
		if err != nil {
			b.Fatal(err)
		}
		if est.Trials != estimateTrials {
			b.Fatal("short estimate")
		}
	}
}

// BenchmarkEstimatePlanComposedLanesTraced is the telemetry-overhead
// twin of BenchmarkEstimatePlanComposedLanes: the identical workload
// with a live span and batch probe attached, the way the service runs it
// when tracing is on. The gap between the pair is the full observation
// cost (two clock reads per engine call plus the probe fold) and is
// budgeted at under 2% — spans are per-batch, not per-trial, so the cost
// amortizes over the whole batch of simulations.
func BenchmarkEstimatePlanComposedLanesTraced(b *testing.B) {
	plan, err := faultcast.CompileOn(composedCfg(), "lanes")
	if err != nil {
		b.Fatal(err)
	}
	tel := telemetry.NewCollector(16, 4)
	var batches atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tel.StartTrace("estimate")
		sp := tr.StartSpan("execute")
		est, err := plan.Estimate(estimateTrials, faultcast.WithBaseSeed(uint64(i)),
			faultcast.WithSpan(sp),
			faultcast.WithBatchProbe(func(bs exec.BatchStat) { batches.Add(1) }))
		if err != nil {
			b.Fatal(err)
		}
		if est.Trials != estimateTrials {
			b.Fatal("short estimate")
		}
		sp.End()
		tr.Finish()
	}
	if batches.Load() == 0 {
		b.Fatal("probe never fired")
	}
}

func BenchmarkEstimatePlanComposedBitsetCore(b *testing.B) {
	benchEstimateOn(b, composedCfg(), "bitset")
}

func BenchmarkEstimatePlanRadioRepeatLanes(b *testing.B) {
	benchEstimateOn(b, radioRepeatCfg(), "lanes")
}

func BenchmarkEstimatePlanRadioRepeatBitsetCore(b *testing.B) {
	benchEstimateOn(b, radioRepeatCfg(), "bitset")
}

// --- k-bit lane lowerings: noise, equivocator, and timing scenarios ------
//
// The pairs below pin the k-bit generalization: the same Estimate workload
// on the scenarios the two-symbol lane core used to gate — the noise
// adversary (three payload symbols, per-transmission alphabet draws), the
// source-only equivocator on a bit message, and the content-free timing
// protocol — forced to the lane core and to the bitset round core it
// replaces on the default path.

func noiseEstimateCfg() faultcast.Config {
	return faultcast.Config{
		Graph: faultcast.KaryTree(63, 2), Source: 0, Message: []byte("diff"),
		Model: faultcast.MessagePassing, Fault: faultcast.Malicious,
		P: 0.3, WindowC: 2, Algorithm: faultcast.SimpleMalicious,
		Adversary: faultcast.NoiseAdv,
	}
}

func equivocatorEstimateCfg() faultcast.Config {
	return faultcast.Config{
		Graph: faultcast.KaryTree(63, 2), Source: 0, Message: []byte("1"),
		Model: faultcast.MessagePassing, Fault: faultcast.Malicious,
		P: 0.35, WindowC: 2, Algorithm: faultcast.SimpleMalicious,
		Adversary: faultcast.WorstCase,
	}
}

func timingEstimateCfg() faultcast.Config {
	return faultcast.Config{
		Graph: faultcast.TwoNode(), Source: 0, Message: []byte("1"),
		Model: faultcast.MessagePassing, Fault: faultcast.LimitedMalicious,
		P: 0.4, WindowC: 64, Algorithm: faultcast.TimingBit,
		Adversary: faultcast.CrashAdv,
	}
}

func BenchmarkEstimateLanesNoise(b *testing.B) {
	benchEstimateOn(b, noiseEstimateCfg(), "lanes")
}

func BenchmarkEstimateLanesNoiseBitsetCore(b *testing.B) {
	benchEstimateOn(b, noiseEstimateCfg(), "bitset")
}

func BenchmarkEstimateLanesEquivocator(b *testing.B) {
	benchEstimateOn(b, equivocatorEstimateCfg(), "lanes")
}

func BenchmarkEstimateLanesEquivocatorBitsetCore(b *testing.B) {
	benchEstimateOn(b, equivocatorEstimateCfg(), "bitset")
}

func BenchmarkEstimateLanesTiming(b *testing.B) {
	benchEstimateOn(b, timingEstimateCfg(), "lanes")
}

func BenchmarkEstimateLanesTimingBitsetCore(b *testing.B) {
	benchEstimateOn(b, timingEstimateCfg(), "bitset")
}

// benchEngineRun times the round core itself — one full Plan.Run per
// iteration, no estimator around it — for the Engine* benchmarks, whose
// workloads are big enough for the word-parallel delivery rules to
// dominate.
func benchEngineRun(b *testing.B, cfg faultcast.Config) {
	plan, err := faultcast.Compile(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func engineMPCfg() faultcast.Config {
	return faultcast.Config{
		Graph: faultcast.Grid(16, 16), Source: 0, Message: []byte("1"),
		Model: faultcast.MessagePassing, Fault: faultcast.Omission,
		P: 0.4, Algorithm: faultcast.Flooding,
	}
}

func engineRadioCfg() faultcast.Config {
	return faultcast.Config{
		Graph: faultcast.Layered(6), Source: 0, Message: []byte("1"),
		Model: faultcast.Radio, Fault: faultcast.Omission,
		P: 0.4, Algorithm: faultcast.RadioRepeat,
	}
}

// --- sweep scheduler: shared worker pool vs the per-cell loop -----------
//
// The pair below measures the sweep tentpole on a feasibility grid
// (2 graphs × 4 failure probabilities, almost-safe early stopping — the
// harness's E1 shape), end to end. PerCell reproduces the pre-sweep
// workflow verbatim: compile each cell, then estimate it on its own
// worker pool, cells strictly sequential — every early-stopped cell's
// batch tails and wind-down leave the pool idle while later cells wait.
// Shared compiles the grid once and schedules every cell's batches on
// one pool, so an early-stopped cell's workers immediately flow to
// undecided cells. Both paths execute bit-identical trials (the
// equivalence tests pin that), so the delta is scheduling plus
// compile sharing; it scales with core count — on a single-vCPU
// machine both serialize to the same trial stream and the pair ties,
// so read BENCH_sweep.json next to its recorded GOMAXPROCS.
// cmd/benchjson records the pair in BENCH_sweep.json.

func sweepGridSpec() faultcast.SweepSpec {
	return faultcast.SweepSpec{
		Graphs: []faultcast.SweepGraph{
			{Graph: faultcast.Line(32)},
			{Graph: faultcast.Grid(6, 6)},
		},
		Models:     []faultcast.Model{faultcast.MessagePassing},
		Faults:     []faultcast.Fault{faultcast.Omission},
		Algorithms: []faultcast.Algorithm{faultcast.SimpleOmission},
		Ps:         []float64{0.2, 0.4, 0.6, 0.8},
		Seed:       0x5eed,
		Budget:     faultcast.CellBudget{Trials: 600, AlmostSafe: true},
	}
}

func BenchmarkSweepFeasibilityGridPerCell(b *testing.B) {
	// Expand the grid once (untimed) so the old loop below sees the same
	// cell list; compilation itself is timed per cell, as the old
	// harness loops paid it.
	ref, err := faultcast.CompileSweep(sweepGridSpec())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ref.Cells() {
			c := &ref.Cells()[j]
			plan, err := faultcast.Compile(c.Config)
			if err != nil {
				b.Fatal(err)
			}
			est, err := plan.Estimate(600, faultcast.WithAlmostSafeTarget())
			if err != nil {
				b.Fatal(err)
			}
			if est.Trials == 0 {
				b.Fatal("empty estimate")
			}
		}
	}
}

func BenchmarkSweepFeasibilityGridShared(b *testing.B) {
	spec := sweepGridSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := faultcast.CompileSweep(spec)
		if err != nil {
			b.Fatal(err)
		}
		cells := 0
		err = sp.Run(context.Background(), func(r faultcast.CellResult) {
			if r.Estimate.Trials == 0 {
				b.Error("empty estimate")
			}
			cells++
		})
		if err != nil {
			b.Fatal(err)
		}
		if cells != len(sp.Cells()) {
			b.Fatalf("only %d cells finished", cells)
		}
	}
}

func BenchmarkEngineMPFlood(b *testing.B)     { benchEngineRun(b, engineMPCfg()) }
func BenchmarkEngineRadioRepeat(b *testing.B) { benchEngineRun(b, engineRadioCfg()) }
