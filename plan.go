package faultcast

import (
	"context"
	"fmt"
	"sync"

	"faultcast/internal/exec"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
	"faultcast/internal/telemetry"
	"faultcast/internal/trace"
)

// Plan is a compiled scenario: all graph- and protocol-dependent work of a
// Config — protocol construction (including the Kučera composition plan,
// the BFS spanning tree, and the greedy radio schedule), the adversary,
// and the round horizon — performed once, so that many Monte-Carlo trials
// can run without repeating any of it. Compile also picks, from the
// scenario alone, the one engine the plan's estimation trials run on
// (lanes or bitset; bit-identical, as the differential tests prove).
//
// Compile once per scenario, then call Run per trial or Estimate per
// sweep point. A Plan's scenario is fixed at Compile, and a Plan is safe
// for concurrent use by multiple goroutines — except that when
// Config.Trace is set, concurrent Run calls would interleave
// unsynchronized writes to the one trace writer, so traced plans must run
// one trial at a time (Estimate ignores Trace).
type Plan struct {
	cfg   Config        // the scenario, as passed to Compile (Trace/Seed included)
	sim   *sim.Config   // compiled engine configuration template
	lanes *sim.LaneSpec // lane-transposed lowering; nil: estimation runs on bitset

	// runners holds the engine state estimation trials borrow:
	// *sim.LaneRunner on a lane plan, *sim.Runner otherwise. A pool, not a
	// free list, so that an idle plan (a cached one, say) pins no runner
	// past the next garbage collections.
	runners sync.Pool

	// storeKey memoises StoreKey on first use: the hash is paid once per
	// plan, and only by plans that touch a tally store.
	storeKey struct {
		once sync.Once
		key  string
	}
}

// Compile lowers the configuration to a reusable execution plan. It
// performs every per-scenario computation exactly once, and the plan owns
// the engine state its estimation trials run on, so Estimate, TallyShard
// and SweepPlan.Run pay only per-trial simulation cost once the plan has
// built its runners (Run, the single-trial path, sets up one engine state
// per call).
//
// Lending rule: each trial call, or each block of up to 64 lane trials,
// borrows a runner from the plan and puts it back when the call ends. No
// runner outlives the call that borrowed it, so any number of goroutines
// may estimate on one plan at once, and runners an idle plan holds are
// dropped at garbage collection.
//
// The estimation engine is chosen here, once: the lane core when the
// scenario has a lane lowering (and is not heldOnRoundCore), the bitset
// round core otherwise.
//
// Config.Seed is kept as the default base seed for Estimate; Config.Trace
// is honored by Plan.Run (each run appends to the writer), and ignored by
// Estimate.
func Compile(cfg Config) (*Plan, error) {
	simCfg, lanes, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if heldOnRoundCore(cfg) {
		lanes = nil
	}
	return &Plan{cfg: cfg, sim: simCfg, lanes: lanes}, nil
}

// Config returns the scenario this plan was compiled from.
func (p *Plan) Config() Config { return p.cfg }

// Key returns the plan's canonical cache key, Config.Fingerprint of the
// compiled configuration: two plans with equal keys run bit-identical
// trial streams, so a serving layer may share one of them.
func (p *Plan) Key() string { return p.cfg.Fingerprint() }

// Rounds returns the compiled round horizon (the algorithm's own horizon
// unless Config.Rounds overrode it).
func (p *Plan) Rounds() int { return p.sim.Rounds }

// AlmostSafeTarget returns the paper's almost-safety bound 1 − 1/n for the
// plan's graph — the natural early-stopping target for Estimate.
func (p *Plan) AlmostSafeTarget() float64 {
	return 1 - 1/float64(p.sim.Graph.N())
}

// Run executes one trial of the compiled scenario with the given seed. It
// is bit-identical to the one-shot Run with the same Config and seed, and
// repeated calls with the same seed return identical results (no state
// leaks between trials). Single trials always run on the bitset round
// engine, whichever core estimates; Config.Trace, if set, receives this
// run's per-round log.
func (p *Plan) Run(seed uint64) (Result, error) {
	simCfg := *p.sim
	simCfg.Seed = seed
	if p.cfg.Trace != nil {
		logger := &trace.Logger{W: p.cfg.Trace}
		simCfg.Observer = logger.Observe
	}
	res, err := sim.Run(&simCfg)
	if err != nil {
		return Result{}, err
	}
	return publicResult(res), nil
}

// estimateOptions collects Estimate tuning; see the EstimateOption
// constructors for semantics.
type estimateOptions struct {
	runOptions
	baseSeed *uint64
	// stop is the stopping policy, lowered by CellBudget.rule like a sweep
	// cell's; its Trials is unused.
	stop         CellBudget
	resumeReport func(resumedTrials int)
}

// EstimateOption tunes Plan.Estimate.
type EstimateOption func(*estimateOptions)

// WithBaseSeed overrides the base seed (default Config.Seed). Trial i uses
// seed base+i.
func WithBaseSeed(seed uint64) EstimateOption {
	return func(o *estimateOptions) { o.baseSeed = &seed }
}

// WithWorkers sets the number of worker goroutines (default GOMAXPROCS).
// The estimate does not depend on the worker count.
func WithWorkers(n int) EstimateOption {
	return func(o *estimateOptions) { o.workers = n }
}

// WithTarget enables early stopping: the estimate stops as soon as a 99%
// Wilson interval is decided against target (entirely above or entirely
// below), or when the requested trial count is exhausted. The stopping
// band is strictly wider than the reported 95% interval, so whenever the
// stream stops early the reported interval is decided the same way. The
// executed trial count is deterministic in (plan, trials, base seed) —
// the interval is checked at fixed batch boundaries, independent of
// machine or worker count. Note the stop is a sequential test: the band
// is consulted after every batch, so near the target the chance of
// stopping on a momentarily-decided interval exceeds the band's nominal
// 1%.
func WithTarget(target float64) EstimateOption {
	return func(o *estimateOptions) {
		o.stop.Target = target
		o.stop.UseTarget = true
		o.stop.AlmostSafe = false
	}
}

// WithAlmostSafeTarget is WithTarget at the paper's almost-safety bound
// 1 − 1/n for the plan's graph — the stopping rule for feasibility sweeps.
func WithAlmostSafeTarget() EstimateOption {
	return func(o *estimateOptions) { o.stop.AlmostSafe = true }
}

// WithHalfWidth enables early stopping once the 95% Wilson interval
// half-width shrinks to w ("estimate until this precise").
func WithHalfWidth(w float64) EstimateOption {
	return func(o *estimateOptions) { o.stop.HalfWidth = w }
}

// WithDispatcher routes the estimate's trial stream through d — e.g. a
// cluster coordinator fanning shards out to remote faultcastd workers —
// instead of the in-process pool. Every dispatcher honors the same
// batch-boundary determinism contract, so the estimate is bit-identical
// whichever one runs it (the cluster tests pin this).
func WithDispatcher(d exec.Dispatcher) EstimateOption {
	return func(o *estimateOptions) { o.dispatcher = d }
}

// WithTallyStore resumes the estimate from ts's stored prefix of this
// (plan, base seed) trial stream and appends the marginal batches back
// after the run — the only way an estimate reuses earlier trials. The
// stored prefix is replayed through the stopping rule at cold batch
// boundaries, so the result is bit-identical to a cold run with the same
// budget: a fully-covering prefix answers with zero trials, a partial
// one simulates only the remainder. Store reads and writes are
// best-effort — a load or append failure costs re-simulation or
// persistence, never correctness. Use WithResumeReport to see how many
// trials the store supplied.
func WithTallyStore(ts TallyStore) EstimateOption {
	return func(o *estimateOptions) { o.store = ts }
}

// WithResumeReport reports, after the estimate completes, how many of
// its trials came from a WithTallyStore replay rather than fresh
// simulation. Estimate.Trials minus the reported count is the simulation
// this call actually paid for; the Estimate itself deliberately carries
// no such field, since resuming never changes the result bits, only who
// computed them.
func WithResumeReport(f func(resumedTrials int)) EstimateOption {
	return func(o *estimateOptions) { o.resumeReport = f }
}

// WithSpan hangs the estimate's execution telemetry off s: the store
// replay (if any) becomes a "store-replay" child span, and the cell
// carries s for dispatcher-level spans — a cluster dispatcher attaches
// one "shard" child per dispatched shard, with worker identity and the
// worker-side subtree grafted in. Tracing is strictly observational (the
// bit-identity matrices run with it forced on); a nil s is a no-op, so
// callers thread a possibly-nil span unconditionally.
func WithSpan(s *telemetry.Span) EstimateOption {
	return func(o *estimateOptions) { o.span = s }
}

// WithBatchProbe observes per-batch timing attribution from the
// in-process pool (see exec.BatchStat): engine time versus batch wall
// span, the raw material for the engine-vs-scheduler-overhead numbers on
// trace spans. The probe runs under the scheduler lock — accumulate,
// don't block. Purely observational, like WithSpan.
func WithBatchProbe(f func(exec.BatchStat)) EstimateOption {
	return func(o *estimateOptions) { o.probe = f }
}

// Estimate runs up to `trials` independent simulations (seeds Seed+i)
// across worker goroutines and estimates the success probability with a
// 95% Wilson interval. Trials run on runners borrowed from the plan (see
// Compile), so per-trial cost is simulation only — no plan rebuilding,
// no state reallocation.
//
// With a stopping option (WithTarget, WithAlmostSafeTarget,
// WithHalfWidth), the estimate stops early once decided; Estimate.Trials
// reports the trials actually executed. A larger budget or a tighter
// rule refines an earlier estimate through WithTallyStore: the stored
// prefix is replayed and only the marginal trials run.
func (p *Plan) Estimate(trials int, opts ...EstimateOption) (Estimate, error) {
	o, rule, baseSeed := p.options(opts)
	// The carried Config lets a remote dispatcher ship the scenario.
	cell := runCell{plan: p, cell: exec.Cell{MaxTrials: trials, BaseSeed: baseSeed, Rule: rule, Scenario: p.cfg}}
	var est Estimate
	resumed := 0
	// Background context: a lone estimate has no cancellation surface.
	err := o.run(context.Background(), []runCell{cell}, func(_ int, e Estimate, r int) { est, resumed = e, r })
	if err != nil {
		return Estimate{}, err
	}
	if o.resumeReport != nil {
		o.resumeReport(resumed)
	}
	return est, nil
}

// runOptions are the execution settings Estimate and SweepPlan.Run share;
// none of them changes an answer's bits.
type runOptions struct {
	workers    int
	dispatcher exec.Dispatcher
	store      TallyStore
	span       *telemetry.Span
	probe      func(exec.BatchStat)
}

// runCell is one request lowered onto a plan's trial stream: the scheduler
// cell minus its trial constructor and observation hooks, which run adds.
type runCell struct {
	plan *Plan
	cell exec.Cell
}

// run is the one path from lowered requests to scheduled cells, shared by
// Estimate (one cell) and SweepPlan.Run (one cell per distinct cell key),
// so standalone estimates and sweep cells run on the same machinery with
// the same determinism contract. With a tally store, each cell that has no
// prior trials resumes from the store's replay, all under one
// "store-replay" span. Every cell then runs on the dispatcher (the
// in-process pool by default), and done receives its estimate and the
// trials it started from once it is decided and its marginal batches are
// appended back to the store. done calls are serialized.
func (o *runOptions) run(ctx context.Context, cells []runCell, done func(i int, est Estimate, resumed int)) error {
	xcells := make([]exec.Cell, len(cells))
	recs := make([]*tallyRecorder, len(cells))
	var replaySpan *telemetry.Span
	if o.store != nil {
		replaySpan = o.span.StartChild("store-replay")
	}
	resumed := 0
	for i, rc := range cells {
		xcells[i] = rc.plan.withTrials(rc.cell)
		xcells[i].Trace, xcells[i].Probe = o.span, o.probe
		if o.store != nil && rc.cell.Start.Trials == 0 {
			recs[i] = resumeFromStore(o.store, rc.plan.StoreKey(), &xcells[i])
			resumed += xcells[i].Start.Trials
		}
	}
	replaySpan.SetAttr("resumed_trials", resumed)
	replaySpan.End()
	d := o.dispatcher
	if d == nil {
		d = exec.Local{}
	}
	return d.Run(ctx, o.workers, xcells, func(i int, p stat.Proportion) {
		// onDone is serialized and ordered after the cell's last fold, so
		// the recorder's buckets are complete and safely visible here.
		recs[i].flush()
		done(i, estimateOf(p), xcells[i].Start.Trials)
	})
}

// Recall answers an Estimate request from the WithTallyStore store's
// stored prefix alone: it replays the prefix exactly as Estimate's resume
// does, but never simulates and never dispatches. ok is true only when
// the prefix decides the request — the rule stops, or the budget is
// covered — and the estimate is then bit-identical to Estimate(trials,
// opts...) with or without the store; otherwise the estimate means
// nothing. Without WithTallyStore, or on a load error, ok is false.
// Options other than the base seed, the stopping rule and the store are
// ignored.
func (p *Plan) Recall(trials int, opts ...EstimateOption) (est Estimate, ok bool) {
	o, rule, baseSeed := p.options(opts)
	if o.store == nil {
		return Estimate{}, false
	}
	stored, err := o.store.LoadTally(p.StoreKey(), baseSeed, storeBatch(rule))
	prop, done := replayStored(stored, trials, rule)
	return estimateOf(prop), err == nil && done
}

// options applies opts and lowers them: the stopping rule (through the
// same CellBudget.rule a sweep cell's budget takes) and the base seed.
func (p *Plan) options(opts []EstimateOption) (o estimateOptions, rule stat.StopRule, baseSeed uint64) {
	for _, f := range opts {
		f(&o)
	}
	baseSeed = p.cfg.Seed
	if o.baseSeed != nil {
		baseSeed = *o.baseSeed
	}
	return o, o.stop.rule(p), baseSeed
}

// estimateOf reports a folded proportion with its 95% Wilson interval.
func estimateOf(prop stat.Proportion) Estimate {
	lo, hi := prop.Wilson(1.96)
	return Estimate{
		Rate: prop.Rate(), Low: lo, Hi: hi,
		Trials: prop.Trials, Succeeds: prop.Successes,
	}
}

// ShardTally is the raw, mergeable outcome of one shard of a plan's trial
// stream: success counts bucketed per batch, in trial order. It is the
// unit of work the cluster layer moves between machines; a coordinator
// concatenates tallies in shard order and replays the stopping rule over
// the merged prefixes, reproducing the single-process stop decisions
// exactly (see internal/cluster).
type ShardTally struct {
	// Trials is the number of trials the shard executed.
	Trials int
	// Batch is the bucket granularity: Successes[i] counts successes among
	// shard trials [i*Batch, min((i+1)*Batch, Trials)).
	Batch int
	// Successes has ceil(Trials/Batch) entries.
	Successes []int
}

// TallyShard runs trials with seeds baseSeed+0 .. baseSeed+trials-1 on
// `workers` goroutines (<= 0 means GOMAXPROCS) and returns their per-batch
// success tally — the worker side of the cluster shard protocol. There is
// deliberately no stopping rule: a shard cannot know the merged prefix it
// will land in, so stop decisions belong to the coordinator's replay.
//
// The tally is a pure function of (plan, baseSeed, trials, batch) — bucket
// membership is fixed by trial index, so worker count and scheduling order
// cannot change any bucket. Shards are therefore idempotent: a coordinator
// may re-run a dropped shard anywhere, even concurrently with a straggling
// first attempt, and fold in whichever copy returns.
func (p *Plan) TallyShard(baseSeed uint64, trials, batch, workers int) ShardTally {
	t := exec.TallyCell(workers, p.withTrials(exec.Cell{
		MaxTrials: trials, BaseSeed: baseSeed, Bucket: batch,
	}))
	return ShardTally{Trials: t.Trials, Batch: t.Batch, Successes: t.Successes}
}

// EstimationCore reports which execution core this plan's estimation
// paths (Estimate, TallyShard) run trials on: "lanes" (the
// trial-parallel lane-transposed core) or "bitset" (the word-parallel
// round core). The choice is a pure function of
// the compiled plan — results are bit-identical across cores; this is the
// observability hook the serving layer reports per response.
func (p *Plan) EstimationCore() string {
	if p.lanes != nil {
		return "lanes"
	}
	return "bitset"
}

// withTrials sets c's one trial constructor: the lane block maker on a
// lane plan, the round-engine trial maker otherwise.
func (p *Plan) withTrials(c exec.Cell) exec.Cell {
	if p.lanes != nil {
		c.NewBlock = p.newBlockMaker()
	} else {
		c.NewTrial = p.newTrialMaker()
	}
	return c
}

// newTrialMaker returns the trial constructor of a round-engine plan. The
// trial it hands every worker borrows one of the plan's Runners per call
// and puts it back when the call ends, so it is safe for concurrent use.
func (p *Plan) newTrialMaker() stat.TrialMaker {
	trial := func(seed uint64) bool {
		runner, _ := p.runners.Get().(*sim.Runner)
		if runner == nil {
			var err error
			if runner, err = sim.NewRunner(p.sim); err != nil {
				panic(fmt.Sprintf("faultcast: estimate trial: %v", err)) // unreachable: compiled
			}
		}
		defer p.runners.Put(runner)
		res, err := runner.Run(seed)
		if err != nil {
			panic(fmt.Sprintf("faultcast: estimate trial: %v", err))
		}
		return res.Success
	}
	return func() stat.Trial { return trial }
}

// newBlockMaker returns the block-trial constructor of a lane plan: 64
// trials per call with verdicts bit-identical to newTrialMaker's, each
// call on a LaneRunner borrowed from the plan as newTrialMaker's are.
func (p *Plan) newBlockMaker() stat.TrialBlockMaker {
	block := func(seed uint64, k int) uint64 {
		lr, _ := p.runners.Get().(*sim.LaneRunner)
		if lr == nil {
			var err error
			if lr, err = sim.NewLaneRunner(p.lanes); err != nil {
				panic(fmt.Sprintf("faultcast: estimate block: %v", err)) // unreachable: validated at Compile
			}
		}
		defer p.runners.Put(lr)
		return lr.Run(seed, k)
	}
	return func() stat.TrialBlock { return block }
}

// publicResult converts an engine result to the public Result.
func publicResult(res *sim.Result) Result {
	return Result{
		Success:     res.Success,
		Rounds:      res.Stats.Rounds,
		FirstFailed: res.FirstFailed,
		Faults:      res.Stats.Faults,
		Deliveries:  res.Stats.Deliveries,
		Collisions:  res.Stats.Collisions,
	}
}
