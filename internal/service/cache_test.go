package service

import (
	"fmt"
	"testing"

	"faultcast"
)

func TestLRUEviction(t *testing.T) {
	c := newLRU[int](2)
	c.put("a", 1)
	c.put("b", 2)
	c.put("c", 3) // evicts a
	if _, ok := c.get("a"); ok {
		t.Fatal("a survived past capacity")
	}
	if v, ok := c.get("b"); !ok || v != 2 {
		t.Fatalf("b = %d,%v", v, ok)
	}
	// b is now most recently used; inserting d evicts c, not b.
	c.put("d", 4)
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
	c.put("b", 20)
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
	// line:8 was evicted; result cache still answers it with zero work,
	// so tighten the requirement to force a plan lookup and recompile.
	postEstimate(t, ts.URL, EstimateRequest{Graph: "line:8", P: 0.2, Trials: 128})
	st = s.Stats()
	if st.PlanCompiles != 5 {
		t.Fatalf("evicted plan not recompiled: %+v", st)
	}
}

// TestPlanSharedAcrossSeeds: the plan cache must not split on the seed —
// a seed ensemble over one scenario compiles exactly once, while the
// result cache keeps the per-seed answers distinct.
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

// TestStoreResultKeepsLargerEstimate: a concurrent small-budget leader
// must not clobber a larger already-cached estimate for the same key —
// results are prefixes of one seed sequence, the bigger one subsumes.
func TestStoreResultKeepsLargerEstimate(t *testing.T) {
	s := New(Options{})
	big := faultcast.Estimate{Rate: 1, Low: 0.99, Hi: 1, Trials: 10000, Succeeds: 10000}
	small := faultcast.Estimate{Rate: 1, Low: 0.9, Hi: 1, Trials: 100, Succeeds: 100}
	cached := func(key string) (faultcast.Estimate, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		e, ok := s.results.get(key)
		return e.est, ok
	}
	s.storeResult("k", big, 7, "bitset")
	s.storeResult("k", small, 7, "bitset")
	if got, ok := cached("k"); !ok || got.Trials != big.Trials {
		t.Fatalf("large estimate clobbered: %+v ok=%v", got, ok)
	}
	// The other direction must still upgrade.
	s.storeResult("k2", small, 7, "bitset")
	s.storeResult("k2", big, 7, "bitset")
	if got, ok := cached("k2"); !ok || got.Trials != big.Trials {
		t.Fatalf("upgrade lost: %+v ok=%v", got, ok)
	}
}

func TestResultEntrySatisfies(t *testing.T) {
	e := resultEntry{est: faultcast.Estimate{Rate: 0.9, Low: 0.85, Hi: 0.95, Trials: 500, Succeeds: 450}}
	if !e.satisfies(500, 0) || !e.satisfies(200, 0) {
		t.Fatal("trial-count requirement not satisfied by equal/larger cached run")
	}
	if e.satisfies(501, 0) {
		t.Fatal("trial-count requirement satisfied by smaller cached run")
	}
	if !e.satisfies(10_000, 0.05) {
		t.Fatal("half-width 0.05 not satisfied by cached half-width 0.05")
	}
	if e.satisfies(10_000, 0.04) {
		t.Fatal("half-width 0.04 satisfied by looser cached interval")
	}
	// An exhausted budget satisfies even when the half-width is missed:
	// a re-execution capped at 400 trials could not improve the answer.
	if !e.satisfies(400, 0.04) {
		t.Fatal("exhausted budget with missed half-width should be served from cache")
	}
}

// TestMemTallyStore: the in-memory tally store keeps the durable store's
// contiguity rule (append, rewind at a bucket boundary, refuse a gap),
// never rewrites a stream a caller already loaded, and holds at most its
// capacity of streams, least recently used evicted first.
func TestMemTallyStore(t *testing.T) {
	m := newMemTallyStore(2)
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
	// Two more streams evict the least recently used one ("p").
	for _, seed := range []uint64{2, 3} {
		if err := m.AppendTally("p", seed, 32, 0, []faultcast.TallyBucket{b(32, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := m.LoadTally("p", 1, 32); len(got) != 0 {
		t.Fatalf("store holds more than its capacity: %v", got)
	}
	if got, _ := m.LoadTally("p", 3, 32); len(got) != 1 {
		t.Fatalf("newest stream lost: %v", got)
	}
}
