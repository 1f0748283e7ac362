package faultcast

import (
	"context"
	"errors"
	"fmt"
	"math"

	"faultcast/internal/exec"
	"faultcast/internal/rng"
	"faultcast/internal/stat"
	"faultcast/internal/telemetry"
)

// SweepGraph is the graph axis entry of a SweepSpec: a topology plus the
// broadcast source used on it. Either Spec (ParseGraph grammar) or a
// pre-built Graph may be given; Graph wins when both are set.
type SweepGraph struct {
	Spec   string
	Graph  *Graph
	Source int
}

// resolve returns the concrete topology, parsing Spec with the sweep seed
// (random families are deterministic in it).
func (sg SweepGraph) resolve(seed uint64) (*Graph, error) {
	if sg.Graph != nil {
		return sg.Graph, nil
	}
	return ParseGraph(sg.Spec, seed)
}

// CellBudget is the per-cell trial budget and stopping policy of a sweep.
type CellBudget struct {
	// Trials is the maximum trial count per cell (default 1000).
	Trials int
	// HalfWidth, when positive, stops a cell once its 95% Wilson interval
	// half-width shrinks to it.
	HalfWidth float64
	// AlmostSafe stops a cell once its interval is decided against the
	// paper's almost-safety bound 1 − 1/n for the cell's graph — the
	// natural rule for feasibility sweeps, where cells far from the
	// threshold frontier decide after a handful of batches.
	AlmostSafe bool
	// Target and UseTarget stop against an explicit success-probability
	// target instead; ignored when AlmostSafe is set.
	Target    float64
	UseTarget bool
	// Z is the Wilson band width of the target check (default 2.576, the
	// 99% band, strictly wider than the reported 95% interval so a
	// stopped cell's reported interval is decided the same way).
	Z float64
}

func (b CellBudget) withDefaults() CellBudget {
	if b.Trials <= 0 {
		b.Trials = 1000
	}
	return b
}

// rule lowers the budget to the cell's stopping rule.
func (b CellBudget) rule(plan *Plan) stat.StopRule {
	var r stat.StopRule
	switch {
	case b.AlmostSafe:
		r.UseTarget = true
		r.Target = plan.AlmostSafeTarget()
	case b.UseTarget:
		r.UseTarget = true
		r.Target = b.Target
	}
	if r.UseTarget {
		r.Z = b.Z
		if r.Z == 0 {
			r.Z = 2.576
		}
	}
	r.HalfWidth = b.HalfWidth
	return r
}

// SweepSpec declares a parameter sweep: axes whose cross product is the
// cell grid, a per-cell budget, and a master seed. Compile it once with
// CompileSweep, then stream every cell's estimate from SweepPlan.Run on
// one shared worker pool.
//
// Cells are expanded in a fixed documented order — Graphs (outermost),
// then Models, Faults, Adversaries, Algorithms, Messages, WindowCs, and
// Ps (innermost) — so a caller can map cell indices back to axis values
// arithmetically. Empty axes default to a single element: MessagePassing,
// Omission, WorstCase, Auto, "1", and WindowC 0 (derive from p); Graphs
// and Ps are required.
//
// Alternatively, Cells lists explicit cell configurations verbatim,
// bypassing the axes — for grids whose parameters co-vary in ways a cross
// product cannot express (e.g. a window constant derived from each
// cell's p and degree).
//
// Seeding: every cell's base seed is derived as rng.Derive(Seed, key)
// from the cell's seed-less canonical identity, so cell streams are
// decorrelated from each other and from the master, and adding, removing,
// or reordering cells never changes the seeds of the others.
// Config.Seed values in explicit Cells are therefore ignored; callers
// needing a hand-picked seed should use Plan.Estimate directly.
type SweepSpec struct {
	Graphs      []SweepGraph
	Models      []Model
	Faults      []Fault
	Adversaries []AdversaryKind
	Algorithms  []Algorithm
	Messages    []string
	WindowCs    []float64
	Ps          []float64

	// Alpha and Rounds apply to every cell (0 = per-algorithm defaults).
	Alpha  float64
	Rounds int

	// Cells, when non-empty, is the explicit cell list (axes above are
	// ignored except Seed and Budget).
	Cells []Config

	Seed   uint64
	Budget CellBudget
}

// CellCount returns the number of cells the spec expands to — the axis
// cross product (empty axes counting as one) or len(Cells) — without
// compiling anything. Servers use it to reject oversized grids before
// paying expansion or compilation cost; the count saturates at
// math.MaxInt on overflow.
func (spec SweepSpec) CellCount() int {
	if len(spec.Cells) > 0 {
		return len(spec.Cells)
	}
	axis := func(n int) int {
		if n == 0 {
			return 1
		}
		return n
	}
	count := len(spec.Graphs) * len(spec.Ps) // both required; 0 if absent
	for _, n := range []int{
		axis(len(spec.Models)), axis(len(spec.Faults)), axis(len(spec.Adversaries)),
		axis(len(spec.Algorithms)), axis(len(spec.Messages)), axis(len(spec.WindowCs)),
	} {
		if count > 0 && n > math.MaxInt/count {
			return math.MaxInt
		}
		count *= n
	}
	return count
}

// SweepCell is one compiled cell of a sweep.
type SweepCell struct {
	// Index is the cell's position in expansion order.
	Index int
	// Config is the cell's full configuration; its Seed is the derived
	// per-cell base seed.
	Config Config
	// Graph records the graph-axis entry the cell came from (Spec is
	// empty for explicit Cells and pre-built graphs).
	Graph SweepGraph
	// Key is the seed-inclusive Config.Fingerprint — the identity of the
	// cell's result: Run executes cells with equal Key once.
	Key string
	// PlanKey is the seed-less fingerprint: cells sharing it share one
	// compiled plan (and, during a run, per-worker engine state).
	PlanKey string

	plan *Plan
}

// Rounds returns the cell's compiled round horizon.
func (c *SweepCell) Rounds() int { return c.plan.Rounds() }

// AlmostSafeTarget returns 1 − 1/n for the cell's graph.
func (c *SweepCell) AlmostSafeTarget() float64 { return c.plan.AlmostSafeTarget() }

// Plan returns the cell's compiled plan (shared across cells with equal
// PlanKey).
func (c *SweepCell) Plan() *Plan { return c.plan }

// CellResult is one cell's estimate, delivered by SweepPlan.Run as soon
// as the cell's stream is decided.
type CellResult struct {
	Index    int
	Cell     *SweepCell
	Estimate Estimate
	// Resumed is the trial count carried in through WithCellPrev or
	// replayed from WithSweepTallyStore (0 for a fresh estimate);
	// Estimate.Trials − Resumed trials were simulated by this run.
	Resumed int
}

// SweepPlan is a compiled sweep: every cell's scenario lowered to a
// shareable plan, ready to run many times. Like Plan, it is immutable
// after CompileSweep and safe for concurrent use.
type SweepPlan struct {
	budget CellBudget
	cells  []SweepCell
	plans  int
}

// CompileSweep expands the spec's cell grid and compiles every distinct
// scenario exactly once: cells that differ only in seed-irrelevant ways
// (duplicate axis values, seed ensembles of one scenario) share a single
// compiled plan, keyed by the seed-less Config.Fingerprint.
func CompileSweep(spec SweepSpec) (*SweepPlan, error) {
	budget := spec.Budget.withDefaults()
	var cfgs []Config
	var metas []SweepGraph
	if len(spec.Cells) > 0 {
		cfgs = append([]Config(nil), spec.Cells...)
		metas = make([]SweepGraph, len(cfgs))
		for i, cfg := range cfgs {
			metas[i] = SweepGraph{Graph: cfg.Graph, Source: cfg.Source}
		}
	} else {
		if len(spec.Graphs) == 0 {
			return nil, errors.New("faultcast: sweep needs at least one graph (or explicit Cells)")
		}
		if len(spec.Ps) == 0 {
			return nil, errors.New("faultcast: sweep needs at least one p (or explicit Cells)")
		}
		models := spec.Models
		if len(models) == 0 {
			models = []Model{MessagePassing}
		}
		faults := spec.Faults
		if len(faults) == 0 {
			faults = []Fault{Omission}
		}
		advs := spec.Adversaries
		if len(advs) == 0 {
			advs = []AdversaryKind{WorstCase}
		}
		algos := spec.Algorithms
		if len(algos) == 0 {
			algos = []Algorithm{Auto}
		}
		msgs := spec.Messages
		if len(msgs) == 0 {
			msgs = []string{"1"}
		}
		wcs := spec.WindowCs
		if len(wcs) == 0 {
			wcs = []float64{0}
		}
		for _, sg := range spec.Graphs {
			g, err := sg.resolve(spec.Seed)
			if err != nil {
				return nil, err
			}
			for _, model := range models {
				for _, fault := range faults {
					for _, adv := range advs {
						for _, algo := range algos {
							for _, msg := range msgs {
								for _, wc := range wcs {
									for _, p := range spec.Ps {
										cfgs = append(cfgs, Config{
											Graph: g, Source: sg.Source, Message: []byte(msg),
											Model: model, Fault: fault, P: p,
											Algorithm: algo, WindowC: wc,
											Alpha: spec.Alpha, Adversary: adv, Rounds: spec.Rounds,
										})
										metas = append(metas, SweepGraph{Spec: sg.Spec, Graph: g, Source: sg.Source})
									}
								}
							}
						}
					}
				}
			}
		}
	}

	plans := map[string]*Plan{}
	cells := make([]SweepCell, len(cfgs))
	for i, cfg := range cfgs {
		seedless := cfg
		seedless.Seed = 0
		seedless.Trace = nil
		canonical := seedless.CanonicalString()
		planKey := fingerprintOf(canonical)
		plan, ok := plans[planKey]
		if !ok {
			var err error
			plan, err = Compile(seedless)
			if err != nil {
				return nil, fmt.Errorf("faultcast: sweep cell %d: %w", i, err)
			}
			plans[planKey] = plan
		}
		cfg.Seed = rng.Derive(spec.Seed, canonical)
		cells[i] = SweepCell{
			Index: i, Config: cfg, Graph: metas[i],
			Key: cfg.Fingerprint(), PlanKey: planKey, plan: plan,
		}
	}
	return &SweepPlan{budget: budget, cells: cells, plans: len(plans)}, nil
}

// Cells returns the compiled cells in expansion order. The slice is the
// plan's own; callers must not mutate it.
func (sp *SweepPlan) Cells() []SweepCell { return sp.cells }

// PlanCount returns the number of distinct compiled plans behind the
// cells — the compilation sharing the sweep achieved.
func (sp *SweepPlan) PlanCount() int { return sp.plans }

// Budget returns the per-cell budget the sweep was compiled with.
func (sp *SweepPlan) Budget() CellBudget { return sp.budget }

// sweepOptions collects Run tuning; see the SweepOption constructors.
type sweepOptions struct {
	workers    int
	prev       func(c *SweepCell) (Estimate, bool)
	dispatcher exec.Dispatcher
	store      TallyStore
	span       *telemetry.Span
	probe      func(exec.BatchStat)
}

// SweepOption tunes SweepPlan.Run.
type SweepOption func(*sweepOptions)

// WithSweepWorkers bounds the shared worker pool (default GOMAXPROCS).
func WithSweepWorkers(n int) SweepOption {
	return func(o *sweepOptions) { o.workers = n }
}

// WithCellPrev supplies a prior estimate per cell — a caller-held view
// of SweepCell.Key. A prior that already satisfies the budget completes
// the cell with zero simulation; otherwise the cell's stream resumes at
// seed base+prev.Trials and only the marginal trials run. The prior is
// folded in as one whole prefix, so a half-width rule may settle on a
// different prefix than a cold run; WithSweepTallyStore is the
// bit-identical resume path.
func WithCellPrev(f func(c *SweepCell) (Estimate, bool)) SweepOption {
	return func(o *sweepOptions) { o.prev = f }
}

// WithSweepTallyStore resumes every cell from ts's persisted prefix of
// its (PlanKey, derived seed) stream and appends the marginal batches
// back as cells complete — WithTallyStore at sweep granularity. Cells
// whose stored confidence already meets the budget complete with zero
// simulation (CellResult.Resumed == Estimate.Trials), so re-running a
// sweep against a warm store only simulates what changed; results stay
// bit-identical to a cold run by the same replay contract. A cell with a
// WithCellPrev prior takes that prior and skips the store (the two
// resume sources would race for the same seed positions).
func WithSweepTallyStore(ts TallyStore) SweepOption {
	return func(o *sweepOptions) { o.store = ts }
}

// WithSweepDispatcher routes every cell's trial stream through d — e.g. a
// cluster coordinator fanning shards out to remote faultcastd workers —
// instead of the in-process pool. The determinism contract makes the two
// interchangeable: each cell's estimate is bit-identical either way.
func WithSweepDispatcher(d exec.Dispatcher) SweepOption {
	return func(o *sweepOptions) { o.dispatcher = d }
}

// WithSweepSpan hangs every cell's execution telemetry off s — the sweep
// analogue of WithSpan: store replay becomes a "store-replay" child with
// the total resumed-trial count, and every exec cell carries s so a
// cluster dispatcher's shard spans land under it. Nil s is a no-op.
func WithSweepSpan(s *telemetry.Span) SweepOption {
	return func(o *sweepOptions) { o.span = s }
}

// WithSweepProbe observes per-batch timing attribution across all cells
// (exec.BatchStat.Cell is the distinct-key group index) — WithBatchProbe
// at sweep granularity, with the same keep-it-cheap contract.
func WithSweepProbe(f func(exec.BatchStat)) SweepOption {
	return func(o *sweepOptions) { o.probe = f }
}

// Run executes every cell on one bounded worker pool and calls emit once
// per cell as its estimate is decided. Workers multiplex across cells —
// an early-stopped cell's workers immediately flow to undecided ones —
// and emit calls are serialized in completion order (not index order),
// so a streaming consumer can forward each result as it lands.
//
// Cells with identical Key describe bit-identical computations (same
// plan, same derived seed); Run executes each distinct Key once and
// emits the shared estimate for every duplicate index.
//
// Each cell's estimate is bit-identical to plan.Estimate run cell-by-cell
// with the same budget and base seed; only the wall-clock schedule
// differs. Run blocks until every cell is emitted or ctx is cancelled,
// returning ctx.Err() in the latter case (cells still undecided at
// cancellation are not emitted).
func (sp *SweepPlan) Run(ctx context.Context, emit func(CellResult), opts ...SweepOption) error {
	var o sweepOptions
	for _, f := range opts {
		f(&o)
	}
	// Group duplicate cells: one execution per distinct Key.
	groups := map[string][]int{}
	var order []string
	for i := range sp.cells {
		k := sp.cells[i].Key
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	execCells := make([]exec.Cell, len(order))
	prevs := make([]Estimate, len(order))
	recs := make([]*tallyRecorder, len(order))
	var replaySpan *telemetry.Span
	resumedTotal := 0
	if o.store != nil {
		replaySpan = o.span.StartChild("store-replay")
	}
	for gi, k := range order {
		c := &sp.cells[groups[k][0]]
		if o.prev != nil {
			if e, ok := o.prev(c); ok {
				prevs[gi] = e
			}
		}
		execCells[gi] = c.plan.withTrials(exec.Cell{
			MaxTrials: sp.budget.Trials,
			BaseSeed:  c.Config.Seed,
			Start:     stat.Proportion{Successes: prevs[gi].Succeeds, Trials: prevs[gi].Trials},
			Rule:      sp.budget.rule(c.plan),
			SharedKey: c.PlanKey,
			Scenario:  c.Config,
			Trace:     o.span,
			Probe:     o.probe,
		})
		if o.store != nil && prevs[gi].Trials == 0 {
			recs[gi] = resumeFromStore(o.store, c.PlanKey, &execCells[gi])
			start := execCells[gi].Start
			prevs[gi] = Estimate{Trials: start.Trials, Succeeds: start.Successes}
			resumedTotal += start.Trials
		}
	}
	if replaySpan != nil {
		replaySpan.SetAttr("resumed_trials", resumedTotal)
		replaySpan.End()
	}
	d := o.dispatcher
	if d == nil {
		d = exec.Local{}
	}
	return d.Run(ctx, o.workers, execCells, func(gi int, p stat.Proportion) {
		// onDone is serialized and ordered after the cell's last fold, so
		// the recorder's buckets are complete and safely visible here.
		recs[gi].flush()
		est := estimateOf(p)
		for _, i := range groups[order[gi]] {
			emit(CellResult{Index: i, Cell: &sp.cells[i], Estimate: est, Resumed: prevs[gi].Trials})
		}
	})
}

// Collect is Run with the results gathered into index order — the
// non-streaming convenience for tables and tests.
func (sp *SweepPlan) Collect(ctx context.Context, opts ...SweepOption) ([]CellResult, error) {
	out := make([]CellResult, len(sp.cells))
	err := sp.Run(ctx, func(r CellResult) { out[r.Index] = r }, opts...)
	if err != nil {
		return nil, err
	}
	return out, nil
}
