package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"faultcast"
	"faultcast/internal/cluster"
	"faultcast/internal/service"
	"faultcast/internal/telemetry"
)

// tally is one cell's outcome, compared by cell index: never an
// order-dependent float sum, since cells are emitted in completion order.
type tally struct{ trials, successes int }

// pass is one CompileSweep + SweepPlan.Run as a user calls it.
type pass struct {
	tallies   []tally
	resumed   []int
	wall      time.Duration
	cpu       float64 // process CPU seconds, compilation included
	compile   time.Duration
	simulated int
	errored   int
}

// passHooks lets a workload time or trace the layers one pass goes through.
type passHooks struct {
	span  *telemetry.Span // parent for the benchmark's own compile/run spans
	l     *ledger
	opts  []faultcast.SweepOption
	prev  []tally // non-nil: resume every cell from it (WithCellPrev)
	probe bool    // attach an engine probe (traced passes only)
	// onRun, if set, receives the pass's run span before Run starts, so
	// store wrappers can hang their spans under it.
	onRun func(*telemetry.Span)
}

func runPass(ctx context.Context, spec faultcast.SweepSpec, h passHooks) (*pass, *faultcast.SweepPlan, error) {
	t0, cpu0 := time.Now(), cpuSeconds()
	csp := h.span.StartChild("compile")
	sp, err := faultcast.CompileSweep(spec)
	csp.End()
	if err != nil {
		return nil, nil, err
	}
	n := len(sp.Cells())
	p := &pass{tallies: make([]tally, n), resumed: make([]int, n), compile: time.Since(t0)}
	for i := range p.tallies {
		p.tallies[i].trials = -1
	}
	opts := append([]faultcast.SweepOption(nil), h.opts...)
	if h.prev != nil {
		opts = append(opts, faultcast.WithCellPrev(func(c *faultcast.SweepCell) (faultcast.Estimate, bool) {
			t := h.prev[c.Index]
			return faultcast.Estimate{Trials: t.trials, Succeeds: t.successes}, true
		}))
	}
	var probe *engineProbe
	rsp := h.span.StartChild("run")
	if rsp != nil {
		opts = append(opts, faultcast.WithSweepSpan(rsp))
	}
	if h.onRun != nil {
		h.onRun(rsp)
	}
	if h.probe {
		probe = newEngineProbe(h.l, sp)
		opts = append(opts, faultcast.WithSweepProbe(probe.observe))
	}
	runStart := time.Now()
	err = sp.Run(ctx, func(res faultcast.CellResult) {
		p.tallies[res.Index] = tally{res.Estimate.Trials, res.Estimate.Succeeds}
		p.resumed[res.Index] = res.Resumed
		p.simulated += res.Estimate.Trials - res.Resumed
	}, opts...)
	runWall := time.Since(runStart)
	rsp.End()
	p.wall, p.cpu = time.Since(t0), cpuSeconds()-cpu0
	for _, t := range p.tallies {
		if t.trials < 0 {
			p.errored++
		}
	}
	if h.l != nil {
		h.l.add("faultcast.compile_s", p.compile.Seconds())
		h.l.add("faultcast.plans", float64(sp.PlanCount()))
		if probe != nil && probe.engine > 0 { // only local runs attribute batches
			workers := float64(runtime.GOMAXPROCS(0))
			engine := probe.engine.Seconds()
			h.l.add("exec.overhead_s", runWall.Seconds()*workers-engine)
			h.l.add("exec.engine_share", engine/(runWall.Seconds()*workers))
			h.l.add("self.sim_s", engine/workers)
			h.l.add("self.exec_s", -engine/workers) // the engine ran inside the run span
		}
	}
	return p, sp, err
}

// statCounts is the stop-rule drift guard: total trials the rule used and
// cells that ran to the full budget. Both are exact for a given seed.
func statCounts(l *ledger, p *pass, budget int) {
	for _, t := range p.tallies {
		l.add("stat.trials_to_decide", float64(t.trials))
		if t.trials >= budget {
			l.add("stat.cells_at_budget", 1)
		}
	}
}

// sweepTiming collects what every sweep workload reports end to end. A
// call is a hot or cold request: a sweep pass, or a store restart step.
// Only untraced calls are recorded; a traced run's traced iterations feed
// the per-layer ledger and telemetry.overhead_frac instead.
type sweepTiming struct {
	walls         []float64
	hotMs, coldMs []float64 // wall times of hot and cold calls
	costs
	busy        float64 // summed wall time of the calls, s
	simulated   int
	answers     int
	tracedWalls []float64 // cold wall times of the traced iterations
}

// call records a call's wall time and output; its CPU cost goes to
// st.costs separately.
func (st *sweepTiming) call(p *pass, hot bool) {
	if hot {
		st.hotMs = append(st.hotMs, ms(p.wall))
	} else {
		st.coldMs = append(st.coldMs, ms(p.wall))
	}
	st.busy += p.wall.Seconds()
	st.simulated += p.simulated
	st.answers += len(p.tallies)
}

func (st *sweepTiming) publish(r *run) {
	st.trials = float64(st.simulated)
	st.costs.publish(r)
	r.set("cpu_ms_per_answer", "ms", st.cpu*1e3/float64(st.answers))
	r.set("max_rss_mb", "MiB", maxRSSMiB())
	r.set("ok_frac", "ratio", float64(r.attempted-r.failed)/float64(max(r.attempted, 1)))
	r.set("wall_s", "s", median(st.walls))
	r.set("trials_per_s", "trials/s", float64(st.simulated)/st.busy)
	r.set("hot_p50_ms", "ms", quantile(st.hotMs, 0.50))
	r.set("hot_p99_ms", "ms", quantile(st.hotMs, 0.99))
	r.set("cold_p50_ms", "ms", quantile(st.coldMs, 0.50))
	r.set("cold_p99_ms", "ms", quantile(st.coldMs, 0.99))
	r.set("goodput_rps", "1/s", float64(st.answers)/st.busy)
}

// hotPolls is how many times each sweep iteration re-polls its grid;
// their CPU time is taken in blocks of hotBlock polls.
const hotPolls, hotBlock = 20, 5

// sweepLoop is the timed phase shared by curve-sweep and cluster-sweep:
// each iteration is a cold pass (every cell simulated) followed by
// hotPolls hot passes that re-run the grid from the cold answers
// (WithCellPrev, zero simulation) — what a client re-polling a sweep it
// already has pays. In a traced run every second iteration is traced; the
// others give the untraced baseline of telemetry.overhead_frac. A new
// iteration starts while the window less half the previous iteration's
// length has time left, so runs end near the window on average.
// around, if set, is called before a traced iteration; the function it
// returns is called after it (cluster-sweep reads its fleet's counters).
// settle, if set, is called before every pass (cluster-sweep waits there
// for its workers to finish shards the last pass no longer needed).
func sweepLoop(r *run, spec faultcast.SweepSpec, st *sweepTiming, l *ledger, opts []faultcast.SweepOption, around func() func(), settle func()) ([]tally, error) {
	ctx := context.Background()
	col := telemetry.NewCollector(4, 1)
	var first []tally
	start := time.Now()
	iters, minIters := 0, 1
	if r.trace {
		minIters = 2 // at least one traced iteration and one untraced
	}
	var last time.Duration // the previous iteration's length
	for iters < minIters || time.Since(start)+last/2 < r.window {
		t0 := time.Now()
		traced := r.trace && iters%2 == 1
		h := passHooks{opts: opts}
		var tr *telemetry.Trace
		var rt *runtimeDelta
		var done func()
		if traced {
			tr = col.StartTrace("iteration")
			h.span, h.l, h.probe = tr.Root(), l, true
			rt = startRuntime()
			if around != nil {
				done = around()
			}
		}
		if settle != nil {
			settle()
		}
		runtime.GC() // the cold pass starts from a collected heap
		var cold *pass
		var err error
		k0, sampling := r.speed.during(100*time.Millisecond, func() { cold, _, err = runPass(ctx, spec, h) })
		if err != nil {
			return nil, fmt.Errorf("cold pass: %w", err)
		}
		cold.cpu -= sampling
		// The hot passes run from one collected heap and are costed in
		// blocks of hotBlock, so CPU that helper threads (the collector,
		// the scavenger) spend for them lands inside a block wherever the
		// scheduler puts it. The kernel runs after each pass; its own CPU
		// time is taken out of the block's.
		h.prev, h.probe = cold.tallies, false
		if settle != nil {
			settle()
		}
		runtime.GC()
		var hots []*pass
		var blockMs, blockKernelMs []float64 // per pass
		var kernelMs []float64
		cpu0 := cpuSeconds()
		for k := 1; k <= hotPolls; k++ {
			hot, _, err := runPass(ctx, spec, h)
			if err != nil {
				return nil, fmt.Errorf("hot pass: %w", err)
			}
			hots = append(hots, hot)
			kernelMs = append(kernelMs, r.speed.at())
			if k%hotBlock == 0 {
				cpu := cpuSeconds()
				blockMs = append(blockMs, ((cpu-cpu0)*1e3-sum(kernelMs))/hotBlock)
				blockKernelMs = append(blockKernelMs, mean(kernelMs))
				cpu0, kernelMs = cpu, nil
			}
		}
		if traced {
			if done != nil {
				done()
			}
			rt.finish(l)
			tr.Finish()
			selfTimes(l, tr.Root(), "")
			r.spans = append(r.spans, tr.Export())
			statCounts(l, cold, spec.Budget.Trials)
			st.tracedWalls = append(st.tracedWalls, cold.wall.Seconds())
		}
		// Gate: every pass answers every cell; a hot pass echoes the cold
		// answers with zero simulation; every iteration's cold answers
		// equal the first's (the reference check follows the timed phase).
		r.attempted += len(cold.tallies)
		r.failed += cold.errored
		for i, t := range cold.tallies {
			if first != nil && first[i] != t {
				r.failed++
				r.fail("iteration %d cell %d: %+v != first iteration's %+v", iters, i, t, first[i])
			}
		}
		for _, hot := range hots {
			r.attempted += len(hot.tallies)
			r.failed += hot.errored
			for i, t := range cold.tallies {
				if hot.tallies[i] != t || hot.resumed[i] != t.trials {
					r.failed++
					r.fail("iteration %d cell %d: hot pass %+v (resumed %d) != cold %+v", iters, i, hot.tallies[i], hot.resumed[i], t)
				}
			}
			if hot.simulated != 0 {
				r.fail("iteration %d: hot pass simulated %d trials", iters, hot.simulated)
			}
		}
		if first == nil {
			first = cold.tallies
		}
		if !traced {
			st.walls = append(st.walls, cold.wall.Seconds())
			st.call(cold, false)
			st.add(false, cold.cpu*1e3, 1, k0)
			for _, hot := range hots {
				st.call(hot, true)
			}
			for i := range blockMs {
				st.add(true, blockMs[i], hotBlock, blockKernelMs[i])
			}
		}
		iters++
		last = time.Since(t0)
	}
	return first, nil
}

// publishTraced sets the per-layer metrics of a traced sweep run.
func (st *sweepTiming) publishTraced(r *run, l *ledger) {
	l.publish(r, float64(len(st.tracedWalls)))
	if len(st.walls) > 0 && len(st.tracedWalls) > 0 {
		r.set("telemetry.overhead_frac", "ratio", median(st.tracedWalls)/median(st.walls)-1)
	}
}

// checkAgainst compares answers cell by cell with a reference.
func checkAgainst(r *run, what string, got, want []tally) {
	if len(got) != len(want) {
		r.fail("%s: %d cells, reference has %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			r.fail("%s: cell %d = %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

func curveSweep(r *run) error {
	var spec faultcast.SweepSpec
	st := &sweepTiming{}
	err := setups(r, func() (err error) { spec, err = curveSpec(r.seed); return err }, func() {})
	if err != nil {
		return err
	}
	l := newLedger()
	got, err := sweepLoop(r, spec, st, l, nil, nil, nil)
	if err != nil {
		return err
	}
	st.publish(r)
	if r.trace {
		st.publishTraced(r, l)
	}
	// Reference: each cell estimated on its own with Plan.Estimate, the
	// single-cell path, at the same seed and stopping rule.
	sp, err := faultcast.CompileSweep(spec)
	if err != nil {
		return err
	}
	want := make([]tally, len(sp.Cells()))
	bitset, lanes := 0, 0
	for i, c := range sp.Cells() {
		est, err := c.Plan().Estimate(spec.Budget.Trials, faultcast.WithBaseSeed(c.Config.Seed), faultcast.WithHalfWidth(spec.Budget.HalfWidth))
		if err != nil {
			return err
		}
		want[i] = tally{est.Trials, est.Succeeds}
		if c.Plan().EstimationCore() == "bitset" {
			bitset++
		} else {
			lanes++
		}
	}
	if bitset == 0 || lanes == 0 {
		r.fail("grid has %d bitset and %d lanes cells; both cores must run", bitset, lanes)
	}
	checkAgainst(r, "curve-sweep vs Plan.Estimate", got, want)
	return nil
}

// fleet is cluster-sweep's set-up: in-process faultcastd workers on
// loopback listeners, a coordinator over them, and the timing hooks.
type fleet struct {
	svcs    []*service.Server
	servers []*httpServer
	coord   *cluster.Coordinator
	client  *http.Client

	mu       sync.Mutex
	rttMs    []float64
	workerNs atomic.Int64
	inflight atomic.Int64 // worker requests being handled
}

// startFleet starts n workers with default service options (tracing on,
// so a traced dispatch gets each worker's span subtree back).
func startFleet(n int) (*fleet, error) {
	f := &fleet{}
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxConnsPerHost = 1 // WorkerInflight is 1: one connection per worker
	f.client = &http.Client{Transport: &timingTransport{f: f, base: base}, Timeout: 2 * time.Minute}
	var urls []string
	for i := 0; i < n; i++ {
		svc := service.New(service.Options{})
		srv, err := listen(f.timedHandler(svc.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.svcs = append(f.svcs, svc)
		f.servers = append(f.servers, srv)
		urls = append(urls, srv.url)
	}
	for _, u := range urls {
		if err := healthy(f.client, u); err != nil {
			f.close()
			return nil, err
		}
	}
	// One cell at a time: with two, the shards of whichever cells the
	// scheduler happens to pair compete for the two worker slots, and the
	// speculative work thrown away after an early stop moved a cold pass's
	// CPU time by ±15% from pass to pass (±5% with one).
	f.coord = cluster.New(urls, cluster.Options{ShardTrials: 96, WorkerInflight: 1, CellConcurrency: 1, HTTPClient: f.client})
	return f, nil
}

func (f *fleet) close() {
	for _, srv := range f.servers {
		srv.close()
	}
	f.client.CloseIdleConnections()
}

// timedHandler adds each /v1/shard handler's wall time to workerNs.
func (f *fleet) timedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		f.inflight.Add(1)
		defer f.inflight.Add(-1)
		t0 := time.Now()
		h.ServeHTTP(w, req)
		if req.URL.Path == "/v1/shard" {
			f.workerNs.Add(int64(time.Since(t0)))
		}
	})
}

// settle waits until no worker is handling a request, so a pass's CPU
// time does not include shards a previous pass left running.
func (f *fleet) settle() {
	for f.inflight.Load() != 0 {
		time.Sleep(time.Millisecond)
	}
}

// timingTransport records each shard round trip, from request start to
// the response body being closed (the coordinator reads it whole).
type timingTransport struct {
	f    *fleet
	base http.RoundTripper
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/shard" {
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.f.mu.Lock()
		t.f.rttMs = append(t.f.rttMs, ms(time.Since(t0)))
		t.f.mu.Unlock()
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// fleetCounters snapshots the workers' and coordinator's counters.
type fleetCounters struct {
	shards, shardTrials, retries, failovers float64
	workerNs                                int64
	rtt                                     int
}

func (f *fleet) counters() fleetCounters {
	var c fleetCounters
	for _, s := range f.svcs {
		st := s.Stats()
		c.shards += float64(st.ShardsExecuted)
		c.shardTrials += float64(st.ShardTrials)
	}
	cs := f.coord.Status()
	c.retries, c.failovers = float64(cs.ShardRetries), float64(cs.LocalFailovers)
	c.workerNs = f.workerNs.Load()
	f.mu.Lock()
	c.rtt = len(f.rttMs)
	f.mu.Unlock()
	return c
}

func clusterSweep(r *run) error {
	var spec faultcast.SweepSpec
	var f *fleet
	st := &sweepTiming{}
	err := setups(r, func() (err error) {
		if spec, err = curveSpec(r.seed); err != nil {
			return err
		}
		f, err = startFleet(2)
		return err
	}, func() { f.close() })
	if err != nil {
		return err
	}
	defer f.close()

	l := newLedger()
	dispatch := []faultcast.SweepOption{faultcast.WithSweepDispatcher(f.coord)}
	around := func() func() {
		before := f.counters()
		return func() {
			after := f.counters()
			var rttSum float64
			f.mu.Lock()
			for _, x := range f.rttMs[before.rtt:after.rtt] {
				rttSum += x
				l.sample("cluster.shard_rtt", x)
			}
			f.mu.Unlock()
			worker := float64(after.workerNs-before.workerNs) / 1e9
			l.add("cluster.shards", after.shards-before.shards)
			l.add("cluster.worker_s", worker)
			l.add("cluster.wire_s", rttSum/1e3-worker)
			l.add("cluster.retries", after.retries-before.retries)
			l.add("cluster.failovers", after.failovers-before.failovers)
			l.add("cluster.computed_trials", after.shardTrials-before.shardTrials)
		}
	}
	got, err := sweepLoop(r, spec, st, l, dispatch, around, f.settle)
	if err != nil {
		return err
	}
	// Failed or retried shard dispatches count against the run.
	cs := f.coord.Status()
	r.failed += int(cs.ShardRetries + cs.LocalFailovers)
	if cs.LocalFailovers != 0 {
		r.fail("%d shards failed over to local execution", cs.LocalFailovers)
	}
	for _, w := range cs.Workers {
		if w.ShardsOK == 0 || w.ShardsFailed != 0 {
			r.fail("worker %s: %d shards ok, %d failed", w.URL, w.ShardsOK, w.ShardsFailed)
		}
	}
	st.publish(r)
	if r.trace {
		finishClusterLayers(r, l, st)
	}
	// Reference: the same grid and seed on the in-process pool, i.e. the
	// curve-sweep computation.
	ref, _, err := runPass(context.Background(), spec, passHooks{})
	if err != nil {
		return err
	}
	checkAgainst(r, "cluster-sweep vs local sweep", got, ref.tallies)
	return nil
}

// finishClusterLayers derives the cluster metrics that need whole-run
// totals, and attributes worker-side engine time from the grafted spans.
func finishClusterLayers(r *run, l *ledger, st *sweepTiming) {
	for _, tj := range r.spans {
		walk(tj.Root, "", func(sp *telemetry.Span, parent string) {
			if sp.Name == "execute" && parent == "shard" {
				core := attr(sp, "core")
				l.add("sim."+core+".trials", attrInt(sp, "trials"))
				l.add("sim."+core+".busy_s", float64(sp.DurNs)/1e9)
			}
		})
	}
	consumed := l.sums["stat.trials_to_decide"]
	computed := l.sums["cluster.computed_trials"]
	delete(l.sums, "cluster.computed_trials")
	st.publishTraced(r, l)
	if computed > 0 {
		r.set("cluster.speculative_frac", "ratio", (computed-consumed)/computed)
	}
}
