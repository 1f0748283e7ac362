package service

import (
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"faultcast"
	"faultcast/internal/stat"
	"faultcast/internal/store"
)

// sameBits strips the serving annotations and compares everything that
// must be bit-identical across cold, warm, refined, and coalesced
// answers: the estimate itself and the plan metadata.
func sameBits(t *testing.T, label string, got, want EstimateResponse) {
	t.Helper()
	got.Served, want.Served = "", ""
	got.TrialsSimulated, want.TrialsSimulated = 0, 0
	got.TraceID, want.TraceID = "", ""
	if got != want {
		t.Fatalf("%s: answers differ:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestWarmRestartServesFromStore is the tentpole contract at the service
// layer: a fresh process over the same store directory must answer a
// previously-served estimate with zero trials, bit-identical — the
// restart is invisible except to the latency of the disk read.
func TestWarmRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	req := EstimateRequest{Graph: "grid:5x5", P: 0.4, Trials: 256, Seed: 11}

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := testServer(t, Options{Store: st1})
	cold := postEstimate(t, ts1.URL, req)
	if cold.Served != "simulated" || cold.TrialsSimulated != cold.Trials {
		t.Fatalf("cold serve: %+v", cold)
	}
	// Same process, same request again: the stored prefix answers.
	repeat := postEstimate(t, ts1.URL, req)
	if repeat.Served != "cache" || repeat.TrialsSimulated != 0 {
		t.Fatalf("in-process repeat: %+v", repeat)
	}
	sameBits(t, "in-process repeat", repeat, cold)
	if stats := s1.Stats(); stats.Store == nil || stats.Store.Appends == 0 {
		t.Fatalf("store not written through: %+v", stats.Store)
	}

	// The "restart": a new Server over a new Store handle on the same
	// directory, with stone-cold in-memory caches.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := testServer(t, Options{Store: st2})
	warm := postEstimate(t, ts2.URL, req)
	if warm.Served != "cache" || warm.TrialsSimulated != 0 {
		t.Fatalf("warm restart simulated trials: %+v", warm)
	}
	sameBits(t, "warm restart", warm, cold)
	stats := s2.Stats()
	if stats.StoreHits != 1 || stats.TrialsSimulated != 0 {
		t.Fatalf("warm stats: store_hits=%d trials_simulated=%d", stats.StoreHits, stats.TrialsSimulated)
	}
	// The warm answer came from execute (no plan was cached to recall
	// with), but it never reached the engine, so it is not an execution.
	if stats.Executions != 0 || stats.ExecutionsByCore["lanes"] != 0 || stats.ExecutionsByCore["bitset"] != 0 {
		t.Fatalf("warm stats count a zero-trial answer as engine work: executions=%d by_core=%v",
			stats.Executions, stats.ExecutionsByCore)
	}

	// A bigger budget against the restarted server refines: it resumes
	// all stored trials and simulates only the margin.
	bigger := req
	bigger.Trials = 512
	refined := postEstimate(t, ts2.URL, bigger)
	if refined.Served != "refined" {
		t.Fatalf("refinement served as %q: %+v", refined.Served, refined)
	}
	if refined.TrialsSimulated != refined.Trials-cold.Trials {
		t.Fatalf("refinement simulated %d, want %d", refined.TrialsSimulated, refined.Trials-cold.Trials)
	}
	if s2.Stats().Refines != 1 {
		t.Fatalf("refines = %d, want 1", s2.Stats().Refines)
	}
	// And the refined answer must be what a cold server computes for the
	// bigger budget outright.
	st3, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts3 := testServer(t, Options{Store: st3})
	coldBig := postEstimate(t, ts3.URL, bigger)
	sameBits(t, "refined vs cold", refined, coldBig)
}

// TestStoreRefinementCoalesces pins the concurrency contract of the
// store path (run under -race): two identical requests refining the same
// stored prefix trigger exactly one execution — one leader resumes the
// store and simulates the margin, the rider coalesces onto its answer.
// Deterministic in the style of the admission tests: the single
// execution slot is held until both requests are parked.
func TestStoreRefinementCoalesces(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Options{Store: st, MaxInflight: 1, MaxQueue: 2})

	prime := EstimateRequest{Graph: "line:12", P: 0.3, Trials: 64, Seed: 5}
	cold := postEstimate(t, ts.URL, prime)
	if cold.Served != "simulated" {
		t.Fatalf("prime: %+v", cold)
	}

	s.slots <- struct{}{} // hold the only execution slot
	refine := prime
	refine.Trials = 192
	cfg, trials, err := refine.config(s.opts)
	if err != nil {
		t.Fatal(err)
	}
	fk := estimateFlightKey(cfg.Fingerprint(), trials, refine.HalfWidth)
	responses := make(chan EstimateResponse, 2)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		responses <- postEstimate(t, ts.URL, refine)
	}
	// The leader registers the flight, then queues for the slot; only
	// once it is confirmed queued does the twin start, and only once the
	// riders gauge confirms the twin is parked on the flight is the slot
	// released — the twin can neither miss the flight window nor find
	// the leader's answer already cached.
	wg.Add(1)
	go post()
	waitFor(t, "leader parked in the queue", func() bool { return s.waiting.Load() == 1 })
	wg.Add(1)
	go post()
	waitFor(t, "twin riding the flight", func() bool {
		n, ok := s.flight.ridersOf(fk)
		return ok && n == 1
	})
	<-s.slots
	wg.Wait()
	close(responses)

	var got []EstimateResponse
	byServed := map[string]int{}
	for r := range responses {
		got = append(got, r)
		byServed[r.Served]++
	}
	if byServed["refined"] != 1 || byServed["coalesced"] != 1 {
		t.Fatalf("served split %v, want one refined + one coalesced", byServed)
	}
	sameBits(t, "coalesced vs leader", got[0], got[1])
	stats := s.Stats()
	if stats.Executions != 2 {
		t.Fatalf("executions = %d, want 2 (prime + one leader)", stats.Executions)
	}
	if stats.Refines != 1 || stats.Coalesced != 1 {
		t.Fatalf("refines=%d coalesced=%d, want 1 and 1", stats.Refines, stats.Coalesced)
	}
	for _, r := range got {
		if r.Served == "refined" && r.TrialsSimulated != r.Trials-cold.Trials {
			t.Fatalf("leader simulated %d, want %d", r.TrialsSimulated, r.Trials-cold.Trials)
		}
	}
}

// TestStatsSnapshotRoundTrip is the regression test for the warm-restart
// stats hole: latency histograms lived only in memory, so a restart
// zeroed them and polluted any bench window spanning it. Saved snapshots
// must restore counts and quantiles into a fresh server exactly.
func TestStatsSnapshotRoundTrip(t *testing.T) {
	s1, ts1 := testServer(t, Options{})
	for i := 0; i < 5; i++ {
		postEstimate(t, ts1.URL, EstimateRequest{Graph: "line:8", P: 0.2, Trials: 64, Seed: uint64(i)})
	}
	before := s1.Stats().Latency["estimate"]
	if before.Count != 5 {
		t.Fatalf("observed %d estimate latencies, want 5", before.Count)
	}

	path := filepath.Join(t.TempDir(), "stats.json")
	if err := s1.SaveStatsSnapshot(path); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := testServer(t, Options{})
	if err := s2.LoadStatsSnapshot(path); err != nil {
		t.Fatal(err)
	}
	after := s2.Stats().Latency["estimate"]
	if after != before {
		t.Fatalf("restored summary %+v != saved %+v", after, before)
	}

	// The restored ledger keeps counting: one more request, count 6.
	postEstimate(t, ts2.URL, EstimateRequest{Graph: "line:8", P: 0.2, Trials: 64, Seed: 99})
	if c := s2.Stats().Latency["estimate"].Count; c != 6 {
		t.Fatalf("count after restore+serve = %d, want 6", c)
	}

	// Missing file: a cold start, not an error. Corrupt file: an error,
	// and nothing restored.
	s3, _ := testServer(t, Options{})
	if err := s3.LoadStatsSnapshot(filepath.Join(t.TempDir(), "absent.json")); err != nil {
		t.Fatalf("missing snapshot errored: %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s3.LoadStatsSnapshot(bad); err == nil {
		t.Fatal("corrupt snapshot loaded silently")
	}
	if c := s3.Stats().Latency["estimate"].Count; c != 0 {
		t.Fatalf("corrupt snapshot half-restored: count %d", c)
	}
}

// modeOptions returns server options for a tally-store mode: "store" (a
// durable store in a fresh directory) or "memory" (the in-memory one).
func modeOptions(t *testing.T, mode string) Options {
	t.Helper()
	if mode == "memory" {
		return Options{}
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return Options{Store: st}
}

// TestStoreModeSkipsMemoryPrev: an answer depends only on its request,
// never on what was asked before — in both tally-store modes. After a
// 1000-trial request, a 200-trial one answers the cold 179/200 (not the
// stored 1000-trial estimate); after a 200-trial request, a half-width
// 0.05 one answers the cold 171/192 (not the stored 200-trial estimate,
// whose interval already meets the half-width).
func TestStoreModeSkipsMemoryPrev(t *testing.T) {
	base := EstimateRequest{Graph: "line:8", P: 0.5, Rounds: 18}
	t1000, t200, hw := base, base, base
	t1000.Trials, t200.Trials, hw.HalfWidth = 1000, 200, 0.05
	for _, mode := range []string{"store", "memory"} {
		t.Run(mode, func(t *testing.T) {
			for _, c := range []struct {
				name          string
				before, after EstimateRequest
				want          [2]int // successes, trials
			}{
				{"200 after 1000", t1000, t200, [2]int{179, 200}},
				{"half-width after 200", t200, hw, [2]int{171, 192}},
			} {
				_, coldTS := testServer(t, modeOptions(t, mode))
				cold := postEstimate(t, coldTS.URL, c.after)
				if cold.Successes != c.want[0] || cold.Trials != c.want[1] {
					t.Fatalf("%s: cold answer %d/%d, want %d/%d", c.name, cold.Successes, cold.Trials, c.want[0], c.want[1])
				}
				_, ts := testServer(t, modeOptions(t, mode))
				postEstimate(t, ts.URL, c.before)
				sameBits(t, c.name, postEstimate(t, ts.URL, c.after), cold)
			}
		})
	}
}

// TestConcurrentRequestsNeverShortenStream: a 1000-trial and a 200-trial
// estimate of one scenario, started together on an empty stream, must
// leave it at least 1000 trials long, in both the durable and the
// in-memory store. Both requests load the empty stream; whichever
// appends second must not let its view of the stream decide, so the
// 200-trial record landing after the 1000-trial one is refused by the
// store — and, being expected, is not counted as an append error.
func TestConcurrentRequestsNeverShortenStream(t *testing.T) {
	g, err := faultcast.ParseGraph("line:8", 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultcast.Compile(faultcast.Config{
		Graph: g, Message: []byte("1"), Model: faultcast.MessagePassing,
		Fault: faultcast.Omission, P: 0.5, Rounds: 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"store", "memory"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			for i := 0; i < 200; i++ {
				var ts faultcast.TallyStore = newMemTallyStore(4096)
				var disk *store.Store
				if mode == "store" {
					if disk, err = store.Open(filepath.Join(dir, strconv.Itoa(i))); err != nil {
						t.Fatal(err)
					}
					ts = disk
				}
				var wg sync.WaitGroup
				for _, trials := range []int{1000, 200} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := plan.Estimate(trials, faultcast.WithTallyStore(ts)); err != nil {
							t.Error(err)
						}
					}()
				}
				wg.Wait()
				stored, _ := ts.LoadTally(plan.StoreKey(), plan.Config().Seed, stat.DefaultBatch)
				end := 0
				for _, b := range stored {
					end += b.Trials
				}
				if end < 1000 {
					t.Fatalf("run %d: the stream ends at trial %d, before the 1000 a request stored", i, end)
				}
				if disk != nil {
					if n := disk.Stats().AppendErrors; n != 0 {
						t.Fatalf("run %d: %d append errors, want 0", i, n)
					}
				}
			}
		})
	}
}
