package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faultcast"
	"faultcast/internal/exec"
	"faultcast/internal/stat"
	"faultcast/internal/telemetry"
)

// Options tunes a Coordinator. The zero value gets sensible defaults.
type Options struct {
	// ShardTrials is the trial count per dispatched shard (default 512).
	// For each cell it is rounded up to a multiple of the cell's stop-rule
	// batch so shard boundaries coincide with batch boundaries — the
	// alignment the determinism replay requires. Smaller shards spread
	// load finer and waste less speculative work past an early stop;
	// larger shards amortize per-request overhead.
	ShardTrials int
	// WorkerInflight bounds concurrently dispatched shards per worker
	// (default 2: one executing, one queued behind it).
	WorkerInflight int
	// CellConcurrency bounds cells dispatched at once (default
	// workers × WorkerInflight, min 1) so one sweep's early cells fill the
	// fleet without flooding it with every cell's first shard.
	CellConcurrency int
	// FailAfter is the consecutive-failure count that marks a worker down
	// (default 3); DownFor is how long a down worker is skipped before
	// being probed again (default 15s). Every failure already re-routes
	// the failed shard immediately — health only steers future picks.
	FailAfter int
	DownFor   time.Duration
	// LocalWorkers is the goroutine count for shards that fail over to
	// local execution (default GOMAXPROCS).
	LocalWorkers int
	// HTTPClient overrides the shard transport (default: 2min timeout).
	HTTPClient *http.Client
	// Now is the clock, overridable by health tests (default time.Now).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.ShardTrials <= 0 {
		o.ShardTrials = 512
	}
	if o.WorkerInflight <= 0 {
		o.WorkerInflight = 2
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 3
	}
	if o.DownFor <= 0 {
		o.DownFor = 15 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{Timeout: 2 * time.Minute}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Coordinator fans estimation cells out across remote faultcastd workers
// as fixed-size shards, merges their per-batch tallies, and replays each
// cell's stopping rule over the merged prefixes. It implements
// exec.Dispatcher, so Plan.Estimate and SweepPlan.Run accept it wherever
// they accept the in-process pool — with bit-identical results, because
// stop decisions are a pure replay of the same batch sequence.
//
// Failure handling is transparent: a failed shard is retried on each
// remaining eligible worker once, then executed locally (the coordinator
// holds the compiled plan, so failover needs no wire); workers that fail
// repeatedly are marked down and probed again after a cooldown. Create
// with New; all methods are safe for concurrent use.
type Coordinator struct {
	opts    Options
	mu      sync.Mutex
	cond    *sync.Cond
	workers []*worker
	rr      int // round-robin pick offset

	cells      atomic.Uint64
	dispatched atomic.Uint64
	discarded  atomic.Uint64
	retried    atomic.Uint64
	failovers  atomic.Uint64
	localCells atomic.Uint64
}

// worker is the coordinator-private state of one remote; all fields are
// guarded by Coordinator.mu.
type worker struct {
	url           string
	inflight      int
	consecFails   int
	downUntil     time.Time
	shardsOK      uint64
	shardsFailed  uint64
	trials        uint64
	planCacheHits uint64
	planCompiles  uint64
	lastErr       string
}

// New returns a Coordinator over the given worker base URLs (e.g.
// "http://10.0.0.7:8347"). URLs are used as-is apart from a trailing
// slash trim; an empty list is legal — every shard then fails over to
// local execution, which keeps a coordinator correct (if pointless) with
// a fully lost fleet.
func New(urls []string, opts Options) *Coordinator {
	c := &Coordinator{opts: opts.withDefaults()}
	c.cond = sync.NewCond(&c.mu)
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		c.workers = append(c.workers, &worker{url: u})
	}
	return c
}

// Run implements exec.Dispatcher with exec.Run's exact semantics: onDone
// once per completed cell, serialized, in completion order; on ctx
// cancellation undecided cells are abandoned unreported and ctx.Err() is
// returned. The workers argument (the in-process pool size) only affects
// cells and shards that execute locally — remote capacity is bounded by
// WorkerInflight per worker instead.
func (c *Coordinator) Run(ctx context.Context, workers int, cells []exec.Cell, onDone func(i int, p stat.Proportion)) error {
	if len(cells) == 0 {
		return ctx.Err()
	}
	// Wake slot waiters when the caller cancels (broadcast under mu, so no
	// waiter can slip into Wait between the cancel and the broadcast).
	if ctx.Done() != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-ctx.Done():
				c.mu.Lock()
				c.cond.Broadcast()
				c.mu.Unlock()
			case <-stopWatch:
			}
		}()
	}
	concurrency := c.opts.CellConcurrency
	if concurrency <= 0 {
		concurrency = len(c.workers) * c.opts.WorkerInflight
	}
	if concurrency < 1 {
		concurrency = 1
	}
	sem := make(chan struct{}, concurrency)
	var emitMu sync.Mutex
	var abandoned atomic.Int64
	var wg sync.WaitGroup
	for i := range cells {
		cell := &cells[i]
		start := stat.Proportion{Successes: cell.Start.Successes, Trials: cell.Start.Trials}
		if start.Trials >= cell.MaxTrials || (cell.Rule.Enabled() && cell.Rule.Done(start)) {
			emitMu.Lock()
			onDone(i, start)
			emitMu.Unlock()
			continue
		}
		wg.Add(1)
		go func(i int, cell *exec.Cell) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				abandoned.Add(1)
				return
			}
			defer func() { <-sem }()
			p, ok := c.runCell(ctx, workers, cell)
			if !ok {
				abandoned.Add(1)
				return
			}
			emitMu.Lock()
			onDone(i, p)
			emitMu.Unlock()
		}(i, cell)
	}
	wg.Wait()
	if abandoned.Load() > 0 {
		return ctx.Err()
	}
	return nil
}

// shardRes carries one shard's outcome back to the cell's merge loop; err
// is only ever a context error (remote failures are handled inside the
// dispatch by retry and local failover, which cannot fail).
type shardRes struct {
	index int
	tally stat.Tally
	err   error
}

// runCell drives one cell: split into shards, dispatch at most a window
// of shards ahead of the merged prefix, replay the stopping rule over the
// contiguous merged prefix, cancel the rest once decided. Returns
// ok=false only when ctx was cancelled before the cell decided.
func (c *Coordinator) runCell(ctx context.Context, poolWorkers int, cell *exec.Cell) (stat.Proportion, bool) {
	cfg, haveWire := cell.Scenario.(faultcast.Config)
	var template ShardRequest
	if haveWire {
		var err error
		if template, err = NewShardRequest(cfg); err != nil {
			haveWire = false
		}
	}
	if !haveWire || len(c.workers) == 0 {
		// No wire form (or no fleet): the whole cell runs in process, on
		// the same scheduler a Local dispatcher would use — bit-identical
		// by the exec determinism contract.
		c.localCells.Add(1)
		var p stat.Proportion
		decided := false
		err := exec.Run(ctx, poolWorkers, []exec.Cell{*cell}, func(_ int, got stat.Proportion) { p = got; decided = true })
		return p, err == nil && decided
	}
	c.cells.Add(1)

	rule := cell.Rule
	batch := 0
	if rule.Enabled() {
		batch = rule.Batch
		if batch <= 0 {
			batch = 32
		}
	} else if cell.Bucket > 0 {
		// Un-ruled but observed (a tally store is recording): bucket at
		// the requested granularity so the persisted decomposition
		// matches a local run's, at a modest wire cost.
		batch = cell.Bucket
	}
	shardTrials := c.opts.ShardTrials
	if batch > 0 {
		if rem := shardTrials % batch; rem != 0 {
			shardTrials += batch - rem
		}
	} else {
		// No stopping rule: no intra-shard decisions to replay, so one
		// bucket per shard keeps the wire minimal.
		batch = shardTrials
	}
	start := stat.Proportion{Successes: cell.Start.Successes, Trials: cell.Start.Trials}
	total := cell.MaxTrials - start.Trials
	nShards := (total + shardTrials - 1) / shardTrials

	// Cancel outstanding dispatches the moment the replay decides; the
	// broadcast releases any dispatcher waiting for a worker slot.
	cctx, cancel := context.WithCancel(ctx)
	defer func() {
		cancel()
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}()

	// Speculation is bounded by the lead over the merged prefix, not by the
	// shards in flight: shard next goes out only while it is fewer than
	// window shards past the first unmerged one. A slow shard at the head
	// therefore stalls dispatch instead of letting later shards run on
	// (acquire wakes waiters in no shard order), so at most window-1
	// dispatched shards lie past the deciding one.
	window := len(c.workers)*c.opts.WorkerInflight + 1 // +1 keeps a shard ready when a slot frees
	resCh := make(chan shardRes, nShards)
	tallies := make([]*stat.Tally, nShards)
	run := start
	next, contig := 0, 0
	for contig < nShards {
		for next < nShards && next < contig+window {
			first := start.Trials + next*shardTrials
			n := min(shardTrials, cell.MaxTrials-first)
			req := template
			req.Index = next
			req.BaseSeed = cell.BaseSeed + uint64(first)
			req.Trials = n
			req.Batch = min(batch, n)
			go c.dispatchShard(cctx, req, cell.Trace, cell.NewTrial, resCh)
			next++
		}
		r := <-resCh
		if r.err != nil {
			c.discarded.Add(uint64(next - contig))
			return stat.Proportion{}, false
		}
		tallies[r.index] = &r.tally
		for contig < nShards && tallies[contig] != nil {
			// Inlined stat.Replay, bucket by bucket, so OnBatch observes
			// exactly the consumed buckets — the deciding one included,
			// the discarded speculation past it excluded — in the same
			// trial order a local fold would report them.
			t := tallies[contig]
			for i, succ := range t.Successes {
				size := t.Batch
				if last := t.Trials - i*t.Batch; last < size {
					size = last
				}
				run.Trials += size
				run.Successes += succ
				if cell.OnBatch != nil {
					cell.OnBatch(size, succ)
				}
				if run.Trials >= cell.MaxTrials || (rule.Enabled() && rule.Done(run)) {
					c.discarded.Add(uint64(next - contig - 1))
					return run, true
				}
			}
			contig++
		}
	}
	// Unreachable in practice: consuming every shard reaches MaxTrials,
	// which Replay reports as done. Kept as a safe landing for a zero-total
	// cell slipping through.
	return run, true
}

// dispatchShard executes one shard somewhere: each eligible worker is
// tried at most once, failures re-route immediately, and when no worker
// remains (all tried, down, or the fleet is empty) the shard runs locally
// on the cell's own trial maker — bit-identical, since a tally is a pure
// function of the shard spec.
//
// When the cell carries a trace span, the shard gets one "shard" child
// recording its trial range, the worker that finally answered (or
// "local"), the retry count, and — grafted in — the worker's own span
// tree from the ShardResponse.
func (c *Coordinator) dispatchShard(ctx context.Context, req ShardRequest, parent *telemetry.Span, newTrial stat.TrialMaker, resCh chan<- shardRes) {
	sp := parent.StartChild("shard")
	sp.SetAttr("index", req.Index)
	sp.SetAttr("trials", req.Trials)
	defer sp.End()
	retries := 0
	tried := make(map[*worker]bool)
	for {
		if ctx.Err() != nil {
			resCh <- shardRes{index: req.Index, err: ctx.Err()}
			return
		}
		w := c.acquire(ctx, tried)
		if w == nil {
			break // no eligible worker — fall over to local execution
		}
		c.dispatched.Add(1)
		resp, err := c.post(ctx, w, req, sp.TraceID())
		// A post that died because the cell was decided (or the caller
		// cancelled) says nothing about the worker's health — don't let
		// early-stop cancellations bench a healthy fleet.
		cancelled := err != nil && ctx.Err() != nil
		c.settle(w, req, resp, err, cancelled)
		if err == nil {
			sp.SetAttr("worker", w.url)
			if retries > 0 {
				sp.SetAttr("retries", retries)
			}
			sp.Graft(resp.Trace)
			resCh <- shardRes{index: req.Index, tally: resp.Tally()}
			return
		}
		tried[w] = true
		if ctx.Err() == nil {
			c.retried.Add(1)
			retries++
		}
	}
	if ctx.Err() != nil {
		resCh <- shardRes{index: req.Index, err: ctx.Err()}
		return
	}
	c.failovers.Add(1)
	sp.SetAttr("worker", "local")
	if retries > 0 {
		sp.SetAttr("retries", retries)
	}
	resCh <- shardRes{index: req.Index, tally: exec.RunShard(c.opts.LocalWorkers, req.BaseSeed, req.Trials, req.Batch, newTrial)}
}

// acquire picks an eligible worker — not yet tried for this shard, not
// marked down, with a free inflight slot — preferring the least loaded
// from a rotating offset. It blocks while eligible workers exist but are
// all at capacity, and returns nil when none remains (or ctx ends).
func (c *Coordinator) acquire(ctx context.Context, tried map[*worker]bool) *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil
		}
		now := c.opts.Now()
		eligible := false
		var pick *worker
		n := len(c.workers)
		for k := 0; k < n; k++ {
			w := c.workers[(c.rr+k)%n]
			if tried[w] || now.Before(w.downUntil) {
				continue
			}
			eligible = true
			if w.inflight < c.opts.WorkerInflight && (pick == nil || w.inflight < pick.inflight) {
				pick = w
			}
		}
		if pick != nil {
			pick.inflight++
			c.rr++
			return pick
		}
		if !eligible {
			return nil
		}
		c.cond.Wait()
	}
}

// settle releases the worker's slot and folds the shard outcome into its
// health and counters. A cancelled post only releases the slot — it is
// the dispatcher's doing, not the worker's.
func (c *Coordinator) settle(w *worker, req ShardRequest, resp *ShardResponse, err error, cancelled bool) {
	c.mu.Lock()
	defer func() {
		c.cond.Broadcast()
		c.mu.Unlock()
	}()
	w.inflight--
	if cancelled {
		return
	}
	if err != nil {
		w.shardsFailed++
		w.consecFails++
		w.lastErr = err.Error()
		if w.consecFails >= c.opts.FailAfter {
			w.downUntil = c.opts.Now().Add(c.opts.DownFor)
		}
		return
	}
	w.shardsOK++
	w.consecFails = 0
	w.downUntil = time.Time{}
	w.trials += uint64(req.Trials)
	if resp.PlanSource == "cache" {
		w.planCacheHits++
	} else {
		w.planCompiles++
	}
}

// post ships one shard to one worker and validates the answer. Any
// transport error, non-200 status (including 429 backpressure and 503
// drain), or malformed tally is a dispatch failure — the caller re-routes
// the shard, so a lying worker can degrade throughput but never an
// estimate.
func (c *Coordinator) post(ctx context.Context, w *worker, req ShardRequest, traceID string) (*ShardResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/shard", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		// Ask the worker to trace the shard and return its span tree; the
		// header value ties the worker's own trace ring entry back to this
		// coordinator trace.
		hreq.Header.Set(telemetry.TraceHeader, traceID)
	}
	hresp, err := c.opts.HTTPClient.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(hresp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: worker %s: %s: %s", w.url, hresp.Status, truncate(body, 200))
	}
	var resp ShardResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("cluster: worker %s: bad shard response: %w", w.url, err)
	}
	if resp.Trials != req.Trials || resp.Batch != req.Batch {
		return nil, fmt.Errorf("cluster: worker %s returned a %d/%d-trial tally for a %d/%d-trial shard",
			w.url, resp.Trials, resp.Batch, req.Trials, req.Batch)
	}
	if req.PlanKey != "" && resp.Key != req.PlanKey {
		return nil, fmt.Errorf("cluster: worker %s computed plan key %s, want %s", w.url, resp.Key, req.PlanKey)
	}
	if err := resp.Tally().Check(); err != nil {
		return nil, fmt.Errorf("cluster: worker %s: %w", w.url, err)
	}
	return &resp, nil
}

func truncate(b []byte, n int) string {
	s := strings.TrimSpace(string(b))
	if len(s) > n {
		s = s[:n] + "..."
	}
	return s
}
