// Package cluster_test exercises the coordinator against real in-process
// workers: httptest servers running the actual faultcastd service
// handler, so every byte crosses the same wire a deployment would use.
// The central pins are the ISSUE's acceptance criteria: a distributed
// estimate and a distributed sweep are bit-identical to the local
// single-process results under fixed seeds — including under simulated
// worker failure mid-sweep.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"faultcast"
	"faultcast/internal/cluster"
	"faultcast/internal/exec"
	"faultcast/internal/service"
	"faultcast/internal/stat"
	"faultcast/internal/store"
)

// newWorker spins up one in-process faultcastd worker.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(service.New(service.Options{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func newCoordinator(t *testing.T, opts cluster.Options, urls ...string) *cluster.Coordinator {
	t.Helper()
	if opts.ShardTrials == 0 {
		opts.ShardTrials = 96 // 3 stop-rule batches: small enough to force many shards
	}
	return cluster.New(urls, opts)
}

func mustCompile(t *testing.T, cfg faultcast.Config) *faultcast.Plan {
	t.Helper()
	plan, err := faultcast.Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestDistributedEstimateBitIdentical: the same plan estimated locally
// and through a coordinator with two workers must agree on every field —
// successes AND executed trials — for no rule, a target rule, and a
// half-width rule.
func TestDistributedEstimateBitIdentical(t *testing.T) {
	coord := newCoordinator(t, cluster.Options{}, newWorker(t).URL, newWorker(t).URL)
	plan := mustCompile(t, faultcast.Config{
		Graph: faultcast.Grid(6, 6), Message: []byte("1"), P: 0.5, Seed: 7,
	})
	cases := []struct {
		name string
		opts []faultcast.EstimateOption
	}{
		{"full-budget", nil},
		{"almost-safe-target", []faultcast.EstimateOption{faultcast.WithAlmostSafeTarget()}},
		{"half-width", []faultcast.EstimateOption{faultcast.WithHalfWidth(0.04)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			local, err := plan.Estimate(1500, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			dist, err := plan.Estimate(1500, append(tc.opts, faultcast.WithDispatcher(coord))...)
			if err != nil {
				t.Fatal(err)
			}
			if dist != local {
				t.Fatalf("distributed %+v != local %+v", dist, local)
			}
		})
	}
	st := coord.Status()
	if st.ShardsDispatched == 0 {
		t.Fatalf("no shards went remote: %+v", st)
	}
	if st.LocalFailovers != 0 || st.ShardRetries != 0 {
		t.Fatalf("healthy fleet saw failovers/retries: %+v", st)
	}
	for _, w := range st.Workers {
		if w.ShardsOK == 0 {
			t.Fatalf("worker %s executed no shards (fan-out did not spread): %+v", w.URL, st)
		}
	}
}

// TestDistributedEstimateResumes: a tally-store refinement through the
// cluster must continue a stored prefix exactly like the local path (the
// serving layer's refinement flow in coordinator mode).
func TestDistributedEstimateResumes(t *testing.T) {
	coord := newCoordinator(t, cluster.Options{}, newWorker(t).URL)
	plan := mustCompile(t, faultcast.Config{
		Graph: faultcast.Line(24), Message: []byte("1"), P: 0.3, Seed: 11,
	})
	// Two stores holding the same 500-trial prefix, one per refinement.
	var stores [2]*store.Store
	for i := range stores {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Estimate(500, faultcast.WithTallyStore(st)); err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	resumed := map[string]int{}
	refine := func(name string, st *store.Store, opts ...faultcast.EstimateOption) faultcast.Estimate {
		t.Helper()
		opts = append(opts, faultcast.WithTallyStore(st),
			faultcast.WithResumeReport(func(n int) { resumed[name] = n }))
		est, err := plan.Estimate(1300, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	local := refine("local", stores[0])
	dist := refine("dist", stores[1], faultcast.WithDispatcher(coord))
	if dist != local {
		t.Fatalf("resumed distributed %+v != local %+v", dist, local)
	}
	if resumed["local"] != 500 || resumed["dist"] != 500 {
		t.Fatalf("resumed %v stored trials, want 500 each", resumed)
	}
	if coord.Status().ShardsDispatched == 0 {
		t.Fatal("the distributed refinement dispatched no shards")
	}
}

func testSweep(seed uint64) faultcast.SweepSpec {
	return faultcast.SweepSpec{
		Graphs: []faultcast.SweepGraph{{Spec: "grid:5x5", Graph: faultcast.Grid(5, 5)}, {Spec: "line:20", Graph: faultcast.Line(20)}},
		Ps:     []float64{0.2, 0.5, 0.8},
		Seed:   seed,
		Budget: faultcast.CellBudget{Trials: 800, AlmostSafe: true},
	}
}

func collect(t *testing.T, sp *faultcast.SweepPlan, opts ...faultcast.SweepOption) []faultcast.CellResult {
	t.Helper()
	out, err := sp.Collect(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSameResults(t *testing.T, dist, local []faultcast.CellResult) {
	t.Helper()
	if len(dist) != len(local) {
		t.Fatalf("%d cells vs %d", len(dist), len(local))
	}
	for i := range local {
		if dist[i].Estimate != local[i].Estimate {
			t.Errorf("cell %d (%s p=%v): distributed %+v != local %+v",
				i, local[i].Cell.Graph.Spec, local[i].Cell.Config.P, dist[i].Estimate, local[i].Estimate)
		}
	}
}

// TestDistributedSweepBitIdentical: a full sweep (two graphs × three ps,
// almost-safe early stopping) through a two-worker cluster matches the
// local run cell for cell.
func TestDistributedSweepBitIdentical(t *testing.T) {
	coord := newCoordinator(t, cluster.Options{}, newWorker(t).URL, newWorker(t).URL)
	sp, err := faultcast.CompileSweep(testSweep(42))
	if err != nil {
		t.Fatal(err)
	}
	local := collect(t, sp)
	dist := collect(t, sp, faultcast.WithSweepDispatcher(coord))
	assertSameResults(t, dist, local)
	if st := coord.Status(); st.CellsDistributed == 0 || st.ShardsDispatched == 0 {
		t.Fatalf("sweep did not distribute: %+v", st)
	}
}

// faultyWorker wraps a real worker with an injected /v1/shard failure
// policy: shard calls numbered by `fails` (1-based) answer 500 instead of
// executing — every third call for an intermittent worker, everything
// past a cutoff for one that dies mid-sweep.
func faultyWorker(t *testing.T, fails func(call uint64) bool) (*httptest.Server, *atomic.Uint64) {
	t.Helper()
	inner := service.New(service.Options{}).Handler()
	var calls, failed atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shard" && fails(calls.Add(1)) {
			failed.Add(1)
			http.Error(w, "injected shard drop", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &failed
}

// TestFailoverMidSweep is the acceptance pin for failure handling: one
// worker drops every third shard, another serves a few shards and then
// dies outright mid-sweep. Dropped shards re-run elsewhere, the dead
// worker is benched after FailAfter consecutive failures, and both the
// sweep and a standalone estimate remain bit-identical to the local
// results.
func TestFailoverMidSweep(t *testing.T) {
	flaky, flakyFails := faultyWorker(t, func(call uint64) bool { return call%3 == 0 })
	dying, _ := faultyWorker(t, func(call uint64) bool { return call > 8 })
	good := newWorker(t)
	coord := newCoordinator(t, cluster.Options{FailAfter: 2, DownFor: time.Hour}, flaky.URL, dying.URL, good.URL)

	sp, err := faultcast.CompileSweep(testSweep(42))
	if err != nil {
		t.Fatal(err)
	}
	local := collect(t, sp)
	dist := collect(t, sp, faultcast.WithSweepDispatcher(coord))
	assertSameResults(t, dist, local)

	plan := mustCompile(t, faultcast.Config{
		Graph: faultcast.Grid(6, 6), Message: []byte("1"), P: 0.5, Seed: 7,
	})
	localEst, err := plan.Estimate(1500)
	if err != nil {
		t.Fatal(err)
	}
	distEst, err := plan.Estimate(1500, faultcast.WithDispatcher(coord))
	if err != nil {
		t.Fatal(err)
	}
	if distEst != localEst {
		t.Fatalf("estimate under failure %+v != local %+v", distEst, localEst)
	}

	if flakyFails.Load() == 0 {
		t.Fatal("the flaky worker never dropped a shard — the test exercised nothing")
	}
	st := coord.Status()
	if st.ShardRetries == 0 {
		t.Fatalf("dropped shards were not re-dispatched: %+v", st)
	}
	for _, w := range st.Workers {
		switch w.URL {
		case flaky.URL:
			if w.ShardsFailed == 0 {
				t.Errorf("flaky worker's failures not tracked: %+v", w)
			}
			if w.LastError == "" {
				t.Errorf("flaky worker has no recorded error: %+v", w)
			}
		case dying.URL:
			if w.Healthy {
				t.Errorf("dead worker never benched despite FailAfter=2: %+v", w)
			}
		case good.URL:
			// Early-stop cancellations must not smear the healthy worker.
			if w.ShardsFailed > 0 {
				t.Errorf("healthy worker blamed for failures: %+v", w)
			}
		}
	}
}

// slowHeadWorker wraps a real worker so that every cell's first shard
// (wire index 0) answers only after delay; all other shards run at once.
func slowHeadWorker(t *testing.T, delay time.Duration) *httptest.Server {
	t.Helper()
	inner := service.New(service.Options{}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shard" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var head struct {
				Index int `json:"index"`
			}
			if json.Unmarshal(body, &head) == nil && head.Index == 0 {
				time.Sleep(delay)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestSpeculationBoundedByMergedPrefix: dispatch may run at most a window
// (workers × WorkerInflight + 1) of shards ahead of the merged prefix.
// With the head shard answering late and the rule deciding inside it,
// the coordinator must stall rather than stream the cell's remaining
// shards out to the free slots — bounding only the shards in flight let
// later shards keep completing and refilling the slots while shard 0
// slept, so every one of the cell's 40 shards went out.
func TestSpeculationBoundedByMergedPrefix(t *testing.T) {
	const workers, inflight = 2, 2
	coord := newCoordinator(t, cluster.Options{WorkerInflight: inflight},
		slowHeadWorker(t, 300*time.Millisecond).URL, slowHeadWorker(t, 300*time.Millisecond).URL)
	plan := mustCompile(t, faultcast.Config{
		Graph: faultcast.Line(16), Message: []byte("1"), P: 0.3, Seed: 5,
	})
	const budget = 40 * 96 // 40 shards of the test's 96-trial size
	local, err := plan.Estimate(budget, faultcast.WithHalfWidth(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if local.Trials > 96 {
		t.Fatalf("the rule decided after %d trials, past the first shard — the test exercises nothing", local.Trials)
	}
	dist, err := plan.Estimate(budget, faultcast.WithHalfWidth(0.2), faultcast.WithDispatcher(coord))
	if err != nil {
		t.Fatal(err)
	}
	if dist != local {
		t.Fatalf("distributed %+v != local %+v", dist, local)
	}
	st := coord.Status()
	if window := uint64(workers*inflight + 1); st.ShardsDispatched > window {
		t.Fatalf("dispatched %d shards for a cell decided in its first; the lead bound allows %d: %+v", st.ShardsDispatched, window, st)
	}
	// Every shard of the first window goes out before shard 0 answers, and
	// all but the deciding one are speculation the merge never consumed.
	if want := uint64(workers * inflight); st.ShardsDiscarded != want {
		t.Fatalf("counted %d discarded shards, want %d: %+v", st.ShardsDiscarded, want, st)
	}
}

// TestAllWorkersLost: with every worker unreachable, the coordinator must
// fail over each shard to local execution and still produce the exact
// local results — a cluster degrades to a single node, never to wrong
// answers.
func TestAllWorkersLost(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // nothing listens here anymore
	coord := newCoordinator(t, cluster.Options{FailAfter: 1, DownFor: time.Hour}, dead.URL)

	plan := mustCompile(t, faultcast.Config{
		Graph: faultcast.Line(16), Message: []byte("1"), P: 0.4, Seed: 3,
	})
	local, err := plan.Estimate(700, faultcast.WithHalfWidth(0.05))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := plan.Estimate(700, faultcast.WithHalfWidth(0.05), faultcast.WithDispatcher(coord))
	if err != nil {
		t.Fatal(err)
	}
	if dist != local {
		t.Fatalf("lost-fleet estimate %+v != local %+v", dist, local)
	}
	st := coord.Status()
	if st.LocalFailovers == 0 {
		t.Fatalf("no local failovers recorded: %+v", st)
	}
	if len(st.Workers) != 1 || st.Workers[0].Healthy {
		t.Fatalf("dead worker still marked healthy: %+v", st)
	}
}

// TestDeadFleetFailsOverOnBlockCore: a shard that falls over to local
// execution runs on the cell's block maker — the plan's own lane core —
// not one trial at a time, and the estimate still equals the local one.
func TestDeadFleetFailsOverOnBlockCore(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	coord := newCoordinator(t, cluster.Options{FailAfter: 1, DownFor: time.Hour}, dead.URL)

	verdict := func(seed uint64) bool { // a deterministic ≈0.75 success rate
		z := seed + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z^(z>>31) < 3<<62
	}
	var trialCalls, blockCalls atomic.Int64
	cell := exec.Cell{
		MaxTrials: 1000, BaseSeed: 17, Rule: stat.StopRule{HalfWidth: 0.03},
		NewTrial: func() stat.Trial {
			return func(seed uint64) bool { trialCalls.Add(1); return verdict(seed) }
		},
		NewBlock: func() stat.TrialBlock {
			return func(base uint64, count int) uint64 {
				blockCalls.Add(1)
				var word uint64
				for i := 0; i < count; i++ {
					if verdict(base + uint64(i)) {
						word |= 1 << uint(i)
					}
				}
				return word
			}
		},
		// A wire form, so shards are offered to the (dead) fleet first.
		Scenario: faultcast.Config{Graph: faultcast.Line(8), Message: []byte("1"), P: 0.5},
	}
	local := exec.EstimateCell(2, cell)

	trialCalls.Store(0)
	blockCalls.Store(0)
	var dist stat.Proportion
	if err := coord.Run(context.Background(), 2, []exec.Cell{cell}, func(_ int, p stat.Proportion) { dist = p }); err != nil {
		t.Fatal(err)
	}
	if dist != local {
		t.Fatalf("failover estimate %+v != local %+v", dist, local)
	}
	if st := coord.Status(); st.LocalFailovers == 0 {
		t.Fatalf("no local failovers recorded: %+v", st)
	}
	if blockCalls.Load() == 0 || trialCalls.Load() != 0 {
		t.Fatalf("failover ran %d block calls and %d single trials, want blocks only",
			blockCalls.Load(), trialCalls.Load())
	}
}

// TestCoordinatorCancellation: mid-run cancellation must surface
// ctx.Err() and abandon undecided cells unreported, mirroring exec.Run.
func TestCoordinatorCancellation(t *testing.T) {
	coord := newCoordinator(t, cluster.Options{}, newWorker(t).URL)
	sp, err := faultcast.CompileSweep(testSweep(42))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = sp.Run(ctx, func(faultcast.CellResult) {
		t.Error("cancelled run emitted a cell")
	}, faultcast.WithSweepDispatcher(coord))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWireRoundTrip: for a spread of scenarios, the wire encoding must
// rebuild a config whose seed-less fingerprint matches the coordinator's
// plan key — the integrity check every shard rides on.
func TestWireRoundTrip(t *testing.T) {
	cfgs := []faultcast.Config{
		{Graph: faultcast.Grid(4, 4), Message: []byte("1"), P: 0.5, Seed: 99},
		{Graph: faultcast.Star(8), Message: []byte("1"), P: 0.17, Model: faultcast.Radio, Fault: faultcast.Malicious, Adversary: faultcast.WorstCase},
		{Graph: faultcast.Line(10), Message: []byte("hello"), P: 0.25, Fault: faultcast.LimitedMalicious, Algorithm: faultcast.Composed, Alpha: 1.5, Rounds: 64},
		{Graph: faultcast.Ring(12), Message: []byte("0"), P: 0.9, WindowC: 3.5, Adversary: faultcast.NoiseAdv},
	}
	for i, cfg := range cfgs {
		req, err := cluster.NewShardRequest(cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		got, key, err := req.Config()
		if err != nil {
			t.Fatalf("cfg %d: rebuild: %v", i, err)
		}
		seedless := cfg
		seedless.Seed = 0
		if got.Fingerprint() != seedless.Fingerprint() || key != seedless.Fingerprint() {
			t.Errorf("cfg %d: rebuilt fingerprint %s, key %s, want %s", i, got.Fingerprint(), key, seedless.Fingerprint())
		}
	}
	if _, err := cluster.NewShardRequest(faultcast.Config{Message: []byte("1")}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := cluster.NewShardRequest(faultcast.Config{Graph: faultcast.Line(4), Message: []byte{0xff, 0xfe}}); err == nil {
		t.Error("non-UTF-8 message accepted")
	}
}

// TestWireRejectsTampering: a shard whose scenario was altered in flight
// fails the plan-key check.
func TestWireRejectsTampering(t *testing.T) {
	req, err := cluster.NewShardRequest(faultcast.Config{Graph: faultcast.Grid(4, 4), Message: []byte("1"), P: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	req.P = 0.6 // tamper
	if _, _, err := req.Config(); err != cluster.ErrPlanKeyMismatch {
		t.Fatalf("tampered shard: err = %v, want ErrPlanKeyMismatch", err)
	}
}
