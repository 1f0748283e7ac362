package service

import (
	"fmt"
	"testing"

	"faultcast"
)

func TestLRUEviction(t *testing.T) {
	c := newLRU[int](2)
	c.put("a", 1, 1)
	c.put("b", 2, 1)
	c.put("c", 3, 1) // evicts a
	if _, ok := c.get("a"); ok {
		t.Fatal("a survived past capacity")
	}
	if v, ok := c.get("b"); !ok || v != 2 {
		t.Fatalf("b = %d,%v", v, ok)
	}
	// b is now most recently used; inserting d evicts c, not b.
	c.put("d", 4, 1)
	if _, ok := c.get("c"); ok {
		t.Fatal("c survived although b was touched more recently")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatal("b evicted out of LRU order")
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
	// Replacement updates in place without growing.
	c.put("b", 20, 1)
	if v, _ := c.get("b"); v != 20 || c.len() != 2 {
		t.Fatalf("replace: b=%d len=%d", v, c.len())
	}
}

// TestPlanCacheEviction: the server's plan LRU must stay bounded and
// recompile evicted plans on demand.
func TestPlanCacheEviction(t *testing.T) {
	s, ts := testServer(t, Options{PlanCacheSize: 2})
	for i := 0; i < 4; i++ {
		postEstimate(t, ts.URL, EstimateRequest{Graph: fmt.Sprintf("line:%d", 8+i), P: 0.2, Trials: 64})
	}
	st := s.Stats()
	if st.PlanCacheEntries != 2 {
		t.Fatalf("plan cache holds %d entries, want 2", st.PlanCacheEntries)
	}
	if st.PlanCompiles != 4 {
		t.Fatalf("compiled %d plans, want 4", st.PlanCompiles)
	}
	// line:8's plan was evicted, so a repeat cannot recall without it:
	// it recompiles, and execution answers from the stored prefix with
	// zero trials all the same.
	er := postEstimate(t, ts.URL, EstimateRequest{Graph: "line:8", P: 0.2, Trials: 64})
	st = s.Stats()
	if st.PlanCompiles != 5 {
		t.Fatalf("evicted plan not recompiled: %+v", st)
	}
	if er.Served != "cache" || er.TrialsSimulated != 0 || st.StoreHits != 1 {
		t.Fatalf("repeat after plan eviction: %+v, store_hits=%d", er, st.StoreHits)
	}
}

// TestPlanSharedAcrossSeeds: the plan cache must not split on the seed —
// a seed ensemble over one scenario compiles exactly once, while the
// tally store keeps the per-seed trial streams distinct.
func TestPlanSharedAcrossSeeds(t *testing.T) {
	s, ts := testServer(t, Options{})
	for seed := uint64(1); seed <= 4; seed++ {
		er := postEstimate(t, ts.URL, EstimateRequest{Graph: "line:12", P: 0.3, Trials: 128, Seed: seed})
		if er.Served != "simulated" {
			t.Fatalf("seed %d not simulated: %+v", seed, er)
		}
	}
	st := s.Stats()
	if st.PlanCompiles != 1 {
		t.Fatalf("%d plan compiles for a 4-seed ensemble, want 1", st.PlanCompiles)
	}
	if st.Executions != 4 || st.CacheHits != 0 {
		t.Fatalf("per-seed results not kept distinct: %+v", st)
	}
}

// TestStoreResultKeepsLargerEstimate: a small request after a large one
// must not shorten the stored stream. Budgets 1000, 200, 1000 on one
// scenario simulate 1000 trials, then at most the 200-trial request's
// short tail, then none; the 200-trial answer is the cold 179/200, not
// the stored 1000-trial estimate.
func TestStoreResultKeepsLargerEstimate(t *testing.T) {
	req := EstimateRequest{Graph: "line:8", P: 0.5, Rounds: 18}
	for _, mode := range []string{"store", "memory"} {
		t.Run(mode, func(t *testing.T) {
			_, coldTS := testServer(t, modeOptions(t, mode))
			small := req
			small.Trials = 200
			cold := postEstimate(t, coldTS.URL, small)
			if cold.Successes != 179 || cold.Trials != 200 {
				t.Fatalf("cold answer %d/%d, want 179/200", cold.Successes, cold.Trials)
			}

			s, ts := testServer(t, modeOptions(t, mode))
			for i, budget := range []int{1000, 200, 1000} {
				r := req
				r.Trials = budget
				got := postEstimate(t, ts.URL, r)
				switch i {
				case 0:
					if got.TrialsSimulated != 1000 {
						t.Fatalf("first request: %+v", got)
					}
				case 1:
					if got.TrialsSimulated > 8 {
						t.Fatalf("200 after 1000 simulated %d trials, want <= 8", got.TrialsSimulated)
					}
					sameBits(t, "200 after 1000", got, cold)
				case 2:
					if got.Served != "cache" || got.TrialsSimulated != 0 {
						t.Fatalf("1000 after 200 re-simulated: %+v", got)
					}
				}
			}
			if st := s.Stats(); st.Store != nil && st.Store.Rewinds != 0 {
				t.Fatalf("store rewound %d times", st.Store.Rewinds)
			}
		})
	}
}

// TestResultEntrySatisfies: Plan.Recall answers from a stored prefix
// exactly when the prefix decides the request, and then with the cold
// answer's bits.
func TestResultEntrySatisfies(t *testing.T) {
	plan, err := faultcast.Compile(faultcast.Config{
		Graph: faultcast.Line(8), Source: 0, Message: []byte("1"),
		Model: faultcast.MessagePassing, Fault: faultcast.Omission, P: 0.5,
		Rounds: 18, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tallies := newMemTallyStore(1 << 10)
	// Stored: one un-ruled 500-trial stream, 15 full buckets and a
	// 20-trial tail.
	if _, err := plan.Estimate(500, faultcast.WithTallyStore(tallies)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		trials int
		hw     float64
		ok     bool
	}{
		{"covered budget", 500, 0, true},
		{"covered aligned budget", 256, 0, true},
		{"larger budget", 501, 0, false},
		{"looser half-width", 10_000, 0.05, true},
		{"tighter half-width", 10_000, 0.01, false},
		{"exhausted budget, half-width missed", 256, 0.01, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var opts []faultcast.EstimateOption
			if c.hw > 0 {
				opts = append(opts, faultcast.WithHalfWidth(c.hw))
			}
			got, ok := plan.Recall(c.trials, append(opts, faultcast.WithTallyStore(tallies))...)
			if ok != c.ok {
				t.Fatalf("recall ok = %v, want %v (%+v)", ok, c.ok, got)
			}
			if !ok {
				return
			}
			cold, err := plan.Estimate(c.trials, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got != cold {
				t.Fatalf("recalled %+v, cold %+v", got, cold)
			}
		})
	}
}

// TestMemTallyStore: the in-memory tally store keeps the durable store's
// contiguity rule (append, rewind at a bucket boundary, refuse a gap),
// never rewrites a stream a caller already loaded, and holds at most its
// capacity of buckets, least recently used streams evicted first.
func TestMemTallyStore(t *testing.T) {
	const capacity = 5
	m := newMemTallyStore(capacity)
	b := func(trials, successes int) faultcast.TallyBucket {
		return faultcast.TallyBucket{Trials: trials, Successes: successes}
	}
	if err := m.AppendTally("p", 1, 32, 0, []faultcast.TallyBucket{b(32, 4), b(4, 1)}); err != nil {
		t.Fatal(err)
	}
	loaded, _ := m.LoadTally("p", 1, 32)
	if err := m.AppendTally("p", 1, 32, 32, []faultcast.TallyBucket{b(32, 7)}); err != nil {
		t.Fatalf("rewind over the short tail: %v", err)
	}
	if got, _ := m.LoadTally("p", 1, 32); fmt.Sprint(got) != fmt.Sprint([]faultcast.TallyBucket{b(32, 4), b(32, 7)}) {
		t.Fatalf("after rewind: %v", got)
	}
	if fmt.Sprint(loaded) != fmt.Sprint([]faultcast.TallyBucket{b(32, 4), b(4, 1)}) {
		t.Fatalf("a loaded stream changed under its caller: %v", loaded)
	}
	if err := m.AppendTally("p", 1, 32, 100, []faultcast.TallyBucket{b(32, 1)}); err == nil {
		t.Fatal("gap append accepted")
	}
	// Two more two-bucket streams overflow the bucket bound and evict the
	// least recently used stream (seed 1).
	for _, seed := range []uint64{2, 3} {
		if err := m.AppendTally("p", seed, 32, 0, []faultcast.TallyBucket{b(32, 1), b(32, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if m.streams.used > capacity {
		t.Fatalf("store holds %d buckets, bound %d", m.streams.used, capacity)
	}
	if got, _ := m.LoadTally("p", 1, 32); len(got) != 0 {
		t.Fatalf("least recently used stream kept past the bound: %v", got)
	}
	if got, _ := m.LoadTally("p", 3, 32); len(got) != 2 {
		t.Fatalf("newest stream lost: %v", got)
	}

	// A server's default bound: 4096 default-budget (1000-trial) streams.
	if got := New(Options{}).tallies.(*memTallyStore).streams.capacity; got != 4096*32 {
		t.Fatalf("default bound %d buckets, want %d", got, 4096*32)
	}
}
