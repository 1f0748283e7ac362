package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"faultcast/internal/store"
)

// waitFor polls cond until it holds or the deadline passes. The admission
// tests use it only to wait for a goroutine to reach a parked state the
// test itself controls the release of — the pinned counter values never
// depend on timing, only the test's progress does.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionCountersDeterministic drives a known barrage through a
// deliberately blocked server and pins EXACT counter values: with the one
// execution slot held by the test and the queue holding Q waiters, D
// further distinct requests must each be rejected — no more, no fewer —
// and releasing the slot must drain the queue into exactly Q executions.
func TestAdmissionCountersDeterministic(t *testing.T) {
	const Q, D = 2, 3
	s, ts := testServer(t, Options{MaxInflight: 1, MaxQueue: Q})
	s.slots <- struct{}{} // hold the only execution slot

	// Q distinct-scenario leaders queue up behind the held slot. Distinct
	// seeds give distinct fingerprints, so nothing coalesces.
	type result struct {
		er  EstimateResponse
		err error
	}
	queued := make(chan result, Q)
	for i := 0; i < Q; i++ {
		req := EstimateRequest{Graph: "line:8", P: 0.2, Trials: 64, Seed: uint64(10 + i)}
		go func() {
			body, _ := json.Marshal(req)
			status, _, raw := postJSON(t, ts.URL, string(body))
			if status != http.StatusOK {
				queued <- result{err: fmt.Errorf("queued request got %d: %s", status, raw)}
				return
			}
			var er EstimateResponse
			queued <- result{er: er, err: json.Unmarshal(raw, &er)}
		}()
	}
	waitFor(t, "Q leaders parked in the queue", func() bool { return s.waiting.Load() == Q })
	if st := s.Stats(); st.Waiting != Q {
		t.Fatalf("stats report %d waiting, want exactly %d", st.Waiting, Q)
	}

	// D more distinct requests now find the slot held AND the queue full:
	// every one must bounce with 429 + Retry-After, synchronously.
	for i := 0; i < D; i++ {
		body, _ := json.Marshal(EstimateRequest{Graph: "line:8", P: 0.2, Trials: 64, Seed: uint64(100 + i)})
		status, header, raw := postJSON(t, ts.URL, string(body))
		if status != http.StatusTooManyRequests {
			t.Fatalf("overflow request %d got %d, want 429: %s", i, status, raw)
		}
		if header.Get("Retry-After") == "" {
			t.Fatalf("overflow request %d: 429 without Retry-After", i)
		}
	}
	if st := s.Stats(); st.Rejected != D {
		t.Fatalf("rejected = %d after %d overflow requests, want exactly %d", st.Rejected, D, D)
	}

	<-s.slots // release the held slot; the queue drains one at a time
	for i := 0; i < Q; i++ {
		if r := <-queued; r.err != nil {
			t.Fatal(r.err)
		}
	}
	st := s.Stats()
	if st.Executions != Q || st.Rejected != D || st.Waiting != 0 ||
		st.Coalesced != 0 || st.CoalescedErrors != 0 || st.Canceled != 0 {
		t.Fatalf("final counters: executions=%d rejected=%d waiting=%d coalesced=%d coalesced_errors=%d canceled=%d; want %d/%d/0/0/0/0",
			st.Executions, st.Rejected, st.Waiting, st.Coalesced, st.CoalescedErrors, st.Canceled, Q, D)
	}
}

// TestCoalescedSuccessExact pins the success side of coalescing exactly:
// a leader parked in the admission queue, F followers confirmed riding its
// flight, one release — exactly 1 execution, exactly F coalesced.
func TestCoalescedSuccessExact(t *testing.T) {
	const F = 5
	s, ts := testServer(t, Options{MaxInflight: 1, MaxQueue: 1})
	s.slots <- struct{}{} // park the leader in the queue

	req := EstimateRequest{Graph: "line:12", P: 0.2, Trials: 64}
	cfg, trials, err := req.config(s.opts)
	if err != nil {
		t.Fatal(err)
	}
	fk := estimateFlightKey(cfg.Fingerprint(), trials, req.HalfWidth)

	results := make(chan EstimateResponse, 1+F)
	post := func() {
		results <- postEstimate(t, ts.URL, req)
	}
	go post() // the leader: registers the flight, then queues for the slot
	waitFor(t, "leader queued", func() bool { return s.waiting.Load() == 1 })
	for i := 0; i < F; i++ {
		go post()
	}
	// The riders gauge makes the barrage deterministic: only once all F
	// followers are confirmed parked on the leader's flight is the slot
	// released — no follower can miss the flight window and execute.
	waitFor(t, "followers riding the flight", func() bool {
		n, ok := s.flight.ridersOf(fk)
		return ok && n == F
	})
	<-s.slots
	var coalesced int
	for i := 0; i < 1+F; i++ {
		if r := <-results; r.Served == "coalesced" {
			coalesced++
		}
	}
	st := s.Stats()
	if st.Executions != 1 || st.Coalesced != F || coalesced != F ||
		st.CoalescedErrors != 0 || st.Rejected != 0 || st.CacheHits != 0 {
		t.Fatalf("executions=%d coalesced=%d (responses %d) coalesced_errors=%d rejected=%d cache_hits=%d; want 1/%d/%d/0/0/0",
			st.Executions, st.Coalesced, coalesced, st.CoalescedErrors, st.Rejected, st.CacheHits, F, F)
	}
}

// TestCoalescedErrorAccounting pins the bugfix for riders of a FAILED
// leader: they used to count as coalesced (reporting N spurious coalesces
// per overloaded leader) while rejected counted only the leader's 429.
// Error-sharing saves no work — it must count as coalesced_errors, and
// rejected must reflect every 429 actually returned. A held synthetic
// leader makes the barrage fully deterministic.
func TestCoalescedErrorAccounting(t *testing.T) {
	const F = 4
	s, ts := testServer(t, Options{MaxInflight: 1, MaxQueue: -1})

	req := EstimateRequest{Graph: "line:12", P: 0.2, Trials: 64}
	cfg, trials, err := req.config(s.opts)
	if err != nil {
		t.Fatal(err)
	}
	fk := estimateFlightKey(cfg.Fingerprint(), trials, req.HalfWidth)

	// Install a leader whose outcome is a 429, held open until the whole
	// barrage has coalesced onto it — the exact shape of one overloaded
	// leader with N riders.
	hold := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		s.flight.do(fk, func() outcome {
			<-hold
			return outcome{status: http.StatusTooManyRequests, errResp: ErrorResponse{
				Error: "estimation capacity exhausted; retry shortly", Code: "overloaded", RetryAfterSeconds: 1,
			}}
		})
	}()
	waitFor(t, "synthetic leader in flight", func() bool {
		_, ok := s.flight.ridersOf(fk)
		return ok
	})

	body, _ := json.Marshal(req)
	statuses := make(chan int, F)
	for i := 0; i < F; i++ {
		go func() {
			status, header, _ := postJSON(t, ts.URL, string(body))
			if status == http.StatusTooManyRequests && header.Get("Retry-After") == "" {
				status = -1 // fold the header check into the status
			}
			statuses <- status
		}()
	}
	waitFor(t, "followers riding the doomed flight", func() bool {
		n, ok := s.flight.ridersOf(fk)
		return ok && n == F
	})
	close(hold)
	for i := 0; i < F; i++ {
		if status := <-statuses; status != http.StatusTooManyRequests {
			t.Fatalf("follower got status %d, want 429 with Retry-After", status)
		}
	}
	<-leaderDone

	st := s.Stats()
	if st.Coalesced != 0 {
		t.Errorf("coalesced = %d for %d error-sharing riders, want 0 (they saved no work)", st.Coalesced, F)
	}
	if st.CoalescedErrors != F {
		t.Errorf("coalesced_errors = %d, want exactly %d", st.CoalescedErrors, F)
	}
	if st.Rejected != F {
		t.Errorf("rejected = %d, want %d — one per 429 actually returned", st.Rejected, F)
	}
	if st.Executions != 0 {
		t.Errorf("executions = %d, want 0", st.Executions)
	}
}

// TestCanceledWhileQueuedNotRejected pins the bugfix for client
// disconnects: a caller whose request dies while queued for a slot used to
// be converted into a 429 + rejected increment, polluting overload metrics
// with client impatience. It must count as canceled instead — rejected
// untouched, no Retry-After owed to a client that already hung up.
func TestCanceledWhileQueuedNotRejected(t *testing.T) {
	s, ts := testServer(t, Options{MaxInflight: 1, MaxQueue: 4})
	s.slots <- struct{}{} // hold the only slot so the sweep queues

	// Estimates detach the leader's cancellation (the flight outlives any
	// one caller), so the queued-cancellation path belongs to sweeps.
	body, _ := json.Marshal(SweepRequest{Graphs: []string{"line:8"}, Ps: []float64{0.2}, Trials: 64})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, "sweep parked in the queue", func() bool { return s.waiting.Load() == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request unexpectedly completed")
	}
	waitFor(t, "server to account the cancellation", func() bool { return s.Stats().Canceled == 1 })

	st := s.Stats()
	if st.Rejected != 0 {
		t.Errorf("rejected = %d after a client disconnect, want 0 — a hang-up is not capacity exhaustion", st.Rejected)
	}
	if st.Waiting != 0 {
		t.Errorf("waiting = %d after the canceled caller left, want 0", st.Waiting)
	}
	<-s.slots // release; the server must still be fully serviceable
	if er := postEstimate(t, ts.URL, EstimateRequest{Graph: "line:8", P: 0.2, Trials: 64}); er.Served != "simulated" {
		t.Fatalf("post-cancel request not served: %+v", er)
	}
}

// TestTrialsClampEchoed pins the bugfix for silent budget clamping: a
// request asking for more than MaxTrials must learn its budget was
// reduced — clamped=true and the original ask echoed — on fresh, cached,
// and unclamped answers alike.
func TestTrialsClampEchoed(t *testing.T) {
	_, ts := testServer(t, Options{MaxTrials: 500, DefaultTrials: 100})

	over := postEstimate(t, ts.URL, EstimateRequest{Graph: "line:8", P: 0.2, Trials: 1000})
	if over.Trials != 500 {
		t.Fatalf("effective budget %d, want the 500 clamp", over.Trials)
	}
	if !over.Clamped || over.TrialsRequested != 1000 {
		t.Fatalf("clamp not echoed: clamped=%v trials_requested=%d, want true/1000", over.Clamped, over.TrialsRequested)
	}
	// The echo is per-request metadata, not part of the cached result: a
	// cache-served repeat must still carry it.
	cached := postEstimate(t, ts.URL, EstimateRequest{Graph: "line:8", P: 0.2, Trials: 1000})
	if cached.Served != "cache" || !cached.Clamped || cached.TrialsRequested != 1000 {
		t.Fatalf("cached answer lost the clamp echo: %+v", cached)
	}
	// An in-bounds request carries neither field.
	within := postEstimate(t, ts.URL, EstimateRequest{Graph: "line:8", P: 0.2, Trials: 200, Seed: 7})
	if within.Clamped || within.TrialsRequested != 0 {
		t.Fatalf("unclamped answer grew clamp fields: %+v", within)
	}
	// The server-default budget is not a clamp either.
	defaulted := postEstimate(t, ts.URL, EstimateRequest{Graph: "line:8", P: 0.2, Seed: 8})
	if defaulted.Clamped || defaulted.TrialsRequested != 0 || defaulted.Trials != 100 {
		t.Fatalf("defaulted answer mislabeled: %+v", defaulted)
	}
}

// TestStatsLatencyHistograms: every endpoint call — success or error —
// must land in its per-endpoint server-side histogram.
func TestStatsLatencyHistograms(t *testing.T) {
	s, ts := testServer(t, Options{})
	postEstimate(t, ts.URL, EstimateRequest{Graph: "line:8", P: 0.2, Trials: 64})
	postJSON(t, ts.URL, `{"graph":`) // a bad request is still a served request

	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		bytes.NewReader([]byte(`{"graphs":["line:8"],"ps":[0.2],"trials":64}`)))
	if err != nil {
		t.Fatal(err)
	}
	// Drain the streamed body: the handler records its latency when it
	// returns, which is only guaranteed once the response has ended.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	st := s.Stats()
	if got := st.Latency["estimate"].Count; got != 2 {
		t.Errorf("estimate latency count %d, want 2 (one success, one 400)", got)
	}
	if got := st.Latency["sweep"].Count; got != 1 {
		t.Errorf("sweep latency count %d, want 1", got)
	}
	if got := st.Latency["shard"].Count; got != 0 {
		t.Errorf("shard latency count %d, want 0", got)
	}
	if st.Latency["estimate"].MaxMs < st.Latency["estimate"].P50Ms {
		t.Errorf("estimate latency summary inconsistent: %+v", st.Latency["estimate"])
	}
}

// TestRecallTakesNoSlot: with the only execution slot held and no queue,
// a request whose stored prefix decides it still answers "cache" — recall
// takes no admission slot — while one whose prefix does not gets 429.
// The prefix comes from an earlier process over the same store, so only
// the tally store (not anything this process answered before) can hold
// it; a request on another seed puts the scenario's plan in the cache.
func TestRecallTakesNoSlot(t *testing.T) {
	dir := t.TempDir()
	open := func() Options {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return Options{Store: st, MaxInflight: 1, MaxQueue: -1}
	}
	req := EstimateRequest{Graph: "line:8", P: 0.5, Rounds: 18, Trials: 256, Seed: 1}
	_, ts1 := testServer(t, open())
	cold := postEstimate(t, ts1.URL, req)

	s, ts := testServer(t, open())
	other := req
	other.Seed = 2
	postEstimate(t, ts.URL, other)
	s.slots <- struct{}{} // hold the only execution slot
	defer func() { <-s.slots }()

	got := postEstimate(t, ts.URL, req)
	if got.Served != "cache" || got.TrialsSimulated != 0 {
		t.Fatalf("decided request with the slot held: %+v", got)
	}
	sameBits(t, "recalled", got, cold)
	bigger := req
	bigger.Trials = 512
	body, _ := json.Marshal(bigger)
	if status, _, raw := postJSON(t, ts.URL, string(body)); status != http.StatusTooManyRequests {
		t.Fatalf("undecided request with the slot held: %d %s", status, raw)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.StoreHits != 1 || st.Rejected != 1 {
		t.Fatalf("stats: cache_hits=%d store_hits=%d rejected=%d", st.CacheHits, st.StoreHits, st.Rejected)
	}
}
