// Package exec schedules Monte-Carlo trial streams onto one bounded
// worker pool shared across many concurrent estimation cells.
//
// Callers submit all cells at once, a single pool of workers multiplexes
// across them, and the moment one cell's interval is decided its workers
// flow to the cells still undecided — a sweep over k cells pays one pool
// lifecycle, and one cell's stragglers (the tail of a batch, the
// wind-down after an early stop) never leave the others' work waiting.
// Intra-cell work is batched, with each cell's stop decisions made by a
// stat.Fold at batch boundaries, but batches from different cells
// interleave freely.
//
// Determinism contract — identical to stat.EstimateStreamFrom's: the
// trials a cell executes are always a prefix of its seed sequence
// BaseSeed+Start.Trials, BaseSeed+Start.Trials+1, ... whose length is
// decided only at fixed batch boundaries, so each cell's resulting
// Proportion is a pure function of (cell spec), never of the worker
// count, the co-scheduled cells, or scheduling order. Success counting
// is order-independent, so cross-cell interleaving cannot change any
// result bit.
package exec

import (
	"context"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"time"

	"faultcast/internal/stat"
	"faultcast/internal/telemetry"
)

// BatchStat is the per-batch timing attribution delivered to Cell.Probe:
// where one folded batch's wall-clock went. Engine is the time spent
// inside trial/block calls, summed over every worker that contributed to
// the batch — with several workers on one batch it can exceed Wall, the
// open-to-fold span of the batch; the difference between Wall and
// Engine/workers is scheduler overhead plus cross-cell interference.
type BatchStat struct {
	Cell      int // index of the cell in the schedule
	Trials    int
	Successes int
	Engine    time.Duration
	Wall      time.Duration
}

// Cell is one schedulable estimation stream: up to MaxTrials trials with
// seeds BaseSeed+i, resumed from Start, stopped early once Rule is
// satisfied at a batch boundary.
type Cell struct {
	// MaxTrials is the total trial budget, including Start.Trials.
	MaxTrials int
	// BaseSeed is the seed of trial 0; trial i runs with BaseSeed+i.
	BaseSeed uint64
	// Start is the resume point: it is taken to be the outcome of trials
	// 0..Start.Trials-1, and new trials continue the seed sequence there.
	// A Start that already satisfies Rule (or exhausts MaxTrials) completes
	// the cell with zero new trials — the cache-hit fast path.
	Start stat.Proportion
	// Rule is the early-stopping rule; the zero value runs all trials.
	Rule stat.StopRule
	// Bucket, when positive and Rule is disabled, reports the cell's
	// trials to OnBatch in Bucket-sized buckets (counted from Start, the
	// last one clipped to the budget) instead of as one whole-budget
	// batch — the granularity a tally store persists un-ruled streams at
	// and a shard tally (TallyCell) is bucketed at. It changes only what
	// OnBatch observes: an un-ruled cell has no stop decisions, so it
	// still runs its whole budget as one batch of full-width block
	// claims, each verdict word split across the buckets it spans.
	// Ignored when Rule is enabled: the rule's own batch governs there.
	Bucket int
	// OnBatch, when non-nil, observes every batch the cell folds in, in
	// trial order: the batch's own trial and success counts, called once
	// per batch boundary before the stop decision, serialized per cell
	// (under the scheduler lock — keep it cheap; buffer, don't block).
	// A bucketed un-ruled cell reports all its buckets, in trial order,
	// when its one batch completes. Batches of a cell later abandoned by
	// cancellation are still reported; consumers that persist must gate
	// on cell completion.
	// The resume prefix in Start is prior work, not a fold — it is never
	// reported.
	OnBatch func(trials, successes int)
	// Probe, when non-nil, observes per-batch timing attribution (see
	// BatchStat), called at the same boundary as OnBatch, after it, under
	// the scheduler lock — keep it cheap. Timing is gathered only when a
	// probe is attached, and it is purely observational: batch sizes,
	// seeds, stop decisions, and tallies are identical with and without
	// it.
	Probe func(BatchStat)
	// Trace, when non-nil, is the parent span for dispatcher-level
	// telemetry. The in-process pool ignores it (Probe already attributes
	// its batches); remote dispatchers hang one child span per shard off
	// it, carrying worker identity, retries, and the worker-side subtree.
	Trace *telemetry.Span
	// NewTrial builds a worker-private trial function. It is called at
	// most once per (worker, SharedKey) pair, so per-trial state — a
	// reusable engine runner — persists across every batch a worker
	// executes for this cell. It is unused when NewBlock is set.
	NewTrial stat.TrialMaker
	// NewBlock, when non-nil, builds a worker-private block-trial function
	// (the lane-transposed engine core) and takes precedence over
	// NewTrial everywhere, the local failover of a remote dispatcher
	// included. Workers then claim trials in stat.BlockWidth-sized
	// chunks, clipped to batch boundaries — so batch totals, stop
	// decisions, and the final Proportion are those per-trial verdicts
	// would give; only the per-trial cost drops. A cell sets one of the
	// two; if it sets both, their verdicts must be bit-identical over the
	// same seeds.
	NewBlock stat.TrialBlockMaker
	// SharedKey, when non-empty, lets a worker reuse one Trial (or
	// TrialBlock) across all cells carrying the same key. Cells may share
	// a key only when their trial functions are interchangeable — e.g.
	// cells compiled from the same plan, whose trials differ only in the
	// seed argument.
	SharedKey string
	// Scenario is an opaque wire description of the cell's computation,
	// consumed by remote Dispatchers (the cluster coordinator ships it to
	// workers, which recompile the plan there). The in-process Dispatcher
	// ignores it; the cell's trial constructor remains authoritative
	// locally — including for a remote dispatcher's failover path.
	Scenario any
}

// Run executes the cells on one pool of `workers` goroutines (<= 0 means
// GOMAXPROCS) and calls onDone exactly once per completed cell with its
// final Proportion. onDone calls are serialized (no two run at once) and
// arrive in completion order, from worker goroutines, while other cells
// are still running — a streaming consumer can forward them immediately.
//
// Run blocks until every cell completes or ctx is cancelled. On
// cancellation it stops claiming new trials, waits for in-flight trials
// to finish, and returns ctx.Err(); cells not already decided at that
// point are abandoned unreported — a truncated estimate is never
// emitted as a decided one.
func Run(ctx context.Context, workers int, cells []Cell, onDone func(i int, p stat.Proportion)) error {
	if len(cells) == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &sched{cells: make([]cellState, len(cells)), onDone: onDone}
	s.cond = sync.NewCond(&s.mu)
	var immediate []int
	for i := range cells {
		c := &cells[i]
		cs := &s.cells[i]
		cs.spec = c
		cs.fold = stat.Fold{P: c.Start, Max: c.MaxTrials, Rule: c.Rule}
		cs.next = c.Start.Trials
		if cs.fold.Done() {
			cs.done = true
			immediate = append(immediate, i)
			continue
		}
		cs.batchEnd = cs.next + cs.fold.Next()
		if c.OnBatch != nil && c.Bucket > 0 && !c.Rule.Enabled() {
			cs.buckets = make([]int, (cs.batchEnd-cs.next+c.Bucket-1)/c.Bucket)
		}
		if c.Probe != nil {
			cs.opened = time.Now()
		}
		s.active++
	}
	for _, i := range immediate {
		s.emit(i, s.cells[i].fold.P)
	}
	if s.active == 0 {
		return ctx.Err()
	}

	var stopWatch chan struct{}
	if ctx.Done() != nil {
		stopWatch = make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				s.mu.Lock()
				s.cancelled = true
				s.cond.Broadcast()
				s.mu.Unlock()
			case <-stopWatch:
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.worker(w)
		}(w)
	}
	wg.Wait()
	if stopWatch != nil {
		close(stopWatch)
	}
	s.mu.Lock()
	abandoned := s.active
	s.mu.Unlock()
	if abandoned > 0 {
		return ctx.Err()
	}
	return nil
}

// EstimateCell runs a single cell to completion — the Plan.Estimate path,
// now just a one-cell schedule on the shared machinery.
func EstimateCell(workers int, c Cell) stat.Proportion {
	var out stat.Proportion
	// Background context: a lone estimate has no cancellation surface.
	_ = Run(context.Background(), workers, []Cell{c}, func(_ int, p stat.Proportion) { out = p })
	return out
}

// cellState is the scheduler-private progress of one cell. fold holds the
// decided totals (through the last completed batch, including the cell's
// Start); the open batch accumulates separately and is folded in only
// when its last trial lands.
type cellState struct {
	spec      *Cell
	done      bool
	fold      stat.Fold
	batchEnd  int // open batch: trial indices [next-inflight..batchEnd)
	next      int // next unclaimed trial index
	inflight  int // claimed, not yet reported
	batchSucc int
	// buckets splits the open batch's successes into Cell.Bucket-sized
	// buckets for OnBatch; nil unless the cell is un-ruled and bucketed.
	buckets []int
	// Probe-only timing state: engineNs accumulates in-engine time of the
	// open batch, opened is when it opened. Untouched without a Probe.
	engineNs int64
	opened   time.Time
}

type sched struct {
	mu        sync.Mutex
	cond      *sync.Cond
	cells     []cellState
	active    int // cells not done
	cancelled bool

	emitMu sync.Mutex
	onDone func(i int, p stat.Proportion)
}

func (s *sched) emit(i int, p stat.Proportion) {
	if s.onDone == nil {
		return
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	s.onDone(i, p)
}

// worker claims work from any cell with unclaimed trials, preferring the
// cell at its cursor (workers start spread across cells and stay with a
// cell while it has work — the work-stealing shape: a worker scans
// forward and takes from the next busy cell only when its own runs dry or
// stops early). Cells with a NewBlock are claimed in stat.BlockWidth-sized
// chunks (clipped to the open batch), others one trial at a time; either
// way the claimed range folds into the same batch totals (and the same
// observation buckets), so results are identical.
func (s *sched) worker(w int) {
	trials := map[string]stat.Trial{}
	blocks := map[string]stat.TrialBlock{}
	cursor := w % len(s.cells)
	for {
		s.mu.Lock()
		var cs *cellState
		ci := -1
		for !s.cancelled && s.active > 0 {
			n := len(s.cells)
			for k := 0; k < n; k++ {
				i := (cursor + k) % n
				c := &s.cells[i]
				if !c.done && c.next < c.batchEnd {
					cs, ci = c, i
					cursor = i
					break
				}
			}
			if cs != nil {
				break
			}
			// No claimable trial anywhere: either every open batch is
			// fully in flight (its completion will open the next one and
			// broadcast) or all cells are done. Sleep until then.
			s.cond.Wait()
		}
		if cs == nil {
			s.mu.Unlock()
			return
		}
		spec := cs.spec
		claim := 1
		if spec.NewBlock != nil {
			claim = cs.batchEnd - cs.next
			if claim > stat.BlockWidth {
				claim = stat.BlockWidth
			}
		}
		seedIdx := cs.next
		cs.next += claim
		cs.inflight += claim
		s.mu.Unlock()

		key := spec.SharedKey
		if key == "" {
			key = "#" + strconv.Itoa(ci)
		}
		var engStart time.Time
		if spec.Probe != nil {
			engStart = time.Now()
		}
		var word uint64 // verdict bit i: trial seedIdx+i succeeded
		if spec.NewBlock != nil {
			block := blocks[key]
			if block == nil {
				block = spec.NewBlock()
				blocks[key] = block
			}
			word = block(spec.BaseSeed+uint64(seedIdx), claim)
		} else {
			trial := trials[key]
			if trial == nil {
				trial = spec.NewTrial()
				trials[key] = trial
			}
			if trial(spec.BaseSeed + uint64(seedIdx)) {
				word = 1
			}
		}

		var engNs int64
		if spec.Probe != nil {
			engNs = time.Since(engStart).Nanoseconds()
		}

		s.mu.Lock()
		cs.inflight -= claim
		cs.batchSucc += bits.OnesCount64(word)
		if cs.buckets != nil {
			splitWord(cs.buckets, spec.Bucket, seedIdx-cs.fold.P.Trials, word, claim)
		}
		cs.engineNs += engNs
		var finished *stat.Proportion
		if cs.next == cs.batchEnd && cs.inflight == 0 {
			// Batch boundary: fold it in and decide.
			size := cs.batchEnd - cs.fold.P.Trials
			if cs.buckets != nil {
				for b, succ := range cs.buckets {
					spec.OnBatch(min(spec.Bucket, size-b*spec.Bucket), succ)
				}
			} else if spec.OnBatch != nil {
				spec.OnBatch(size, cs.batchSucc)
			}
			if spec.Probe != nil {
				spec.Probe(BatchStat{
					Cell:      ci,
					Trials:    size,
					Successes: cs.batchSucc,
					Engine:    time.Duration(cs.engineNs),
					Wall:      time.Since(cs.opened),
				})
				cs.engineNs = 0
				cs.opened = time.Now()
			}
			decided := cs.fold.Add(size, cs.batchSucc)
			cs.batchSucc = 0
			switch {
			case decided:
				cs.done = true
				s.active--
				p := cs.fold.P
				finished = &p
			case s.cancelled:
				// Wind-down: the cell is mid-stream, neither budget nor
				// rule satisfied. Close it WITHOUT emitting — it stays in
				// the active count, so Run reports ctx.Err() instead of
				// passing a truncated estimate off as a decided one.
				cs.done = true
			default:
				cs.batchEnd = cs.next + cs.fold.Next()
			}
			// Either way there is news: fresh trials to claim, or one
			// fewer active cell (possibly zero, releasing all waiters).
			s.cond.Broadcast()
		}
		s.mu.Unlock()
		if finished != nil {
			s.emit(ci, *finished)
		}
	}
}

// splitWord adds the successes of a k-trial verdict word, whose first
// trial is trial off of the open batch, to the size-trial buckets it
// spans.
func splitWord(buckets []int, size, off int, word uint64, k int) {
	for i := 0; i < k; {
		b := (off + i) / size
		lim := min((b+1)*size-off, k)
		mask := ^uint64(0)
		if lim < 64 {
			mask = 1<<uint(lim) - 1
		}
		mask &^= 1<<uint(i) - 1
		buckets[b] += bits.OnesCount64(word & mask)
		i = lim
	}
}
