package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"faultcast"
)

func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, buf.Bytes()
}

func postEstimate(t *testing.T, url string, req EstimateRequest) EstimateResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	status, _, raw := postJSON(t, url, string(body))
	if status != http.StatusOK {
		t.Fatalf("estimate returned %d: %s", status, raw)
	}
	var er EstimateResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatalf("bad estimate body: %v: %s", err, raw)
	}
	return er
}

// TestEstimateHandlerTable: every malformed request must be rejected with
// a 400 and a structured error naming the failure — before any simulation
// or compilation work is admitted.
func TestEstimateHandlerTable(t *testing.T) {
	_, ts := testServer(t, Options{MaxNodes: 64})
	cases := []struct {
		name      string
		body      string
		wantCode  string
		wantField string
	}{
		{"empty body", ``, "bad-json", ""},
		{"broken json", `{"graph":`, "bad-json", ""},
		{"unknown field", `{"graph":"line:8","p":0.1,"bogus":1}`, "bad-json", ""},
		{"missing graph", `{"p":0.5}`, "bad-request", "graph"},
		{"bad graph spec", `{"graph":"dodecahedron:12","p":0.5}`, "bad-request", "graph"},
		{"undersized ring", `{"graph":"ring:2","p":0.5}`, "bad-request", "graph"},
		{"file spec refused", `{"graph":"file:/etc/passwd","p":0.5}`, "bad-request", "graph"},
		{"oversized graph", `{"graph":"line:100","p":0.5}`, "graph-too-large", "graph"},
		{"p too big", `{"graph":"line:8","p":1.0}`, "bad-request", "p"},
		{"p negative", `{"graph":"line:8","p":-0.25}`, "bad-request", "p"},
		{"bad model", `{"graph":"line:8","p":0.5,"model":"smoke-signals"}`, "bad-request", "model"},
		{"bad fault", `{"graph":"line:8","p":0.5,"fault":"byzantine"}`, "bad-request", "fault"},
		{"bad algorithm", `{"graph":"line:8","p":0.5,"algorithm":"quantum"}`, "bad-request", "algorithm"},
		{"bad adversary", `{"graph":"line:8","p":0.5,"adversary":"friendly"}`, "bad-request", "adversary"},
		{"source out of range", `{"graph":"line:8","p":0.5,"source":8}`, "bad-request", "source"},
		{"negative trials", `{"graph":"line:8","p":0.5,"trials":-5}`, "bad-request", "trials"},
		{"half_width too wide", `{"graph":"line:8","p":0.5,"half_width":0.6}`, "bad-request", "half_width"},
		{"negative rounds", `{"graph":"line:8","p":0.5,"rounds":-1}`, "bad-request", "rounds"},
		// Model/algorithm mismatches surface from Compile, still as 400.
		{"flooding on radio", `{"graph":"line:8","p":0.2,"model":"radio","algorithm":"flooding"}`, "bad-request", ""},
		{"timing-bit off K2", `{"graph":"line:8","p":0.2,"fault":"limited","algorithm":"timing-bit"}`, "bad-request", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, raw := postJSON(t, ts.URL, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", status, raw)
			}
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil {
				t.Fatalf("unstructured error body: %v: %s", err, raw)
			}
			if er.Code != tc.wantCode {
				t.Errorf("code %q, want %q (%s)", er.Code, tc.wantCode, er.Error)
			}
			if tc.wantField != "" && er.Field != tc.wantField {
				t.Errorf("field %q, want %q (%s)", er.Field, tc.wantField, er.Error)
			}
			if er.Error == "" {
				t.Error("empty error message")
			}
		})
	}
}

func TestEstimateHappyPath(t *testing.T) {
	s, ts := testServer(t, Options{})
	er := postEstimate(t, ts.URL, EstimateRequest{Graph: "line:16", P: 0.3, Trials: 400})
	if er.Served != "simulated" || er.TrialsSimulated != 400 || er.Trials != 400 {
		t.Fatalf("unexpected serving: %+v", er)
	}
	if er.Rate < 0 || er.Rate > 1 || er.Low > er.Rate || er.High < er.Rate {
		t.Fatalf("malformed interval: %+v", er)
	}
	if er.N != 16 || er.Rounds <= 0 || er.Key == "" {
		t.Fatalf("missing plan metadata: %+v", er)
	}
	st := s.Stats()
	if st.Executions != 1 || st.PlanCompiles != 1 || st.TrialsSimulated != 400 {
		t.Fatalf("stats after one run: %+v", st)
	}
}

// TestEstimateCoreField pins the execution-core surface: responses carry
// the engine that computed them (echoed on cache hits), and /v1/stats
// splits executions per core.
func TestEstimateCoreField(t *testing.T) {
	s, ts := testServer(t, Options{})

	// Default line:16 omission flooding has a lane lowering.
	er := postEstimate(t, ts.URL, EstimateRequest{Graph: "line:16", P: 0.3, Trials: 400})
	if er.Core != "lanes" {
		t.Fatalf("lane-supported scenario reported core %q, want lanes", er.Core)
	}
	// A repeat is a cache hit and must echo the computing core.
	er = postEstimate(t, ts.URL, EstimateRequest{Graph: "line:16", P: 0.3, Trials: 400})
	if er.Served != "cache" || er.Core != "lanes" {
		t.Fatalf("cache hit lost the core: %+v", er)
	}
	// A gated scenario (default message "0") falls back to the bitset core.
	er = postEstimate(t, ts.URL, EstimateRequest{Graph: "line:16", P: 0.3, Trials: 400, Message: "0"})
	if er.Core != "bitset" {
		t.Fatalf("gated scenario reported core %q, want bitset", er.Core)
	}

	st := s.Stats()
	if st.ExecutionsByCore["lanes"] != 1 || st.ExecutionsByCore["bitset"] != 1 {
		t.Fatalf("per-core execution counters: %+v", st.ExecutionsByCore)
	}
	if st.ExecutionsByCore["scalar"] != 0 || st.ExecutionsByCore["concurrent"] != 0 {
		t.Fatalf("unexpected scalar/concurrent executions: %+v", st.ExecutionsByCore)
	}
}

// TestCoalescing is the acceptance-criteria test: 64 concurrent identical
// requests must trigger exactly one underlying plan execution, with every
// caller receiving the same answer. Run under -race in CI.
func TestCoalescing(t *testing.T) {
	s, ts := testServer(t, Options{MaxInflight: 2})
	req := EstimateRequest{Graph: "grid:6x6", P: 0.5, Trials: 2000}

	const callers = 64
	start := make(chan struct{})
	responses := make([]EstimateResponse, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			responses[i] = postEstimate(t, ts.URL, req)
		}(i)
	}
	close(start)
	wg.Wait()

	st := s.Stats()
	if st.Executions != 1 {
		t.Fatalf("64 identical requests caused %d plan executions, want exactly 1", st.Executions)
	}
	if st.PlanCompiles != 1 {
		t.Fatalf("plan compiled %d times, want 1", st.PlanCompiles)
	}
	if st.Coalesced+st.CacheHits != callers-1 {
		t.Fatalf("coalesced %d + cache hits %d != %d followers", st.Coalesced, st.CacheHits, callers-1)
	}
	for i, r := range responses {
		if r.Rate != responses[0].Rate || r.Trials != responses[0].Trials || r.Successes != responses[0].Successes {
			t.Fatalf("caller %d got a different answer: %+v vs %+v", i, r, responses[0])
		}
		if r.Served != "simulated" && r.TrialsSimulated != 0 {
			t.Fatalf("follower %d paid %d trials (served=%s)", i, r.TrialsSimulated, r.Served)
		}
	}
}

// TestCachedEstimateZeroTrials: a repeat request, and a looser one, whose
// stopping rule the stored prefix already decides must perform zero
// simulation trials — and the looser one answers where a cold run of it
// stops, not with the tighter estimate.
func TestCachedEstimateZeroTrials(t *testing.T) {
	s, ts := testServer(t, Options{})
	req := EstimateRequest{Graph: "line:16", P: 0.3, Trials: 2000, HalfWidth: 0.08}

	first := postEstimate(t, ts.URL, req)
	if first.Served != "simulated" || first.TrialsSimulated == 0 {
		t.Fatalf("first request should simulate: %+v", first)
	}
	if first.HalfWidth > 0.08 {
		t.Fatalf("first request missed its precision target: %+v", first)
	}
	before := s.Stats().TrialsSimulated

	second := postEstimate(t, ts.URL, req)
	if second.Served != "cache" || second.TrialsSimulated != 0 {
		t.Fatalf("repeat request not served from cache: %+v", second)
	}
	// A looser request is decided by the same stored prefix.
	looserReq := EstimateRequest{Graph: "line:16", P: 0.3, Trials: 2000, HalfWidth: 0.2}
	looser := postEstimate(t, ts.URL, looserReq)
	if looser.Served != "cache" || looser.TrialsSimulated != 0 {
		t.Fatalf("looser request not served from cache: %+v", looser)
	}
	_, coldTS := testServer(t, Options{})
	sameBits(t, "looser request", looser, postEstimate(t, coldTS.URL, looserReq))
	if after := s.Stats().TrialsSimulated; after != before {
		t.Fatalf("cache hits simulated %d trials", after-before)
	}
	if st := s.Stats(); st.CacheHits != 2 || st.Executions != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRefinement: a tighter follow-up request must top the cached estimate
// up (continuing its seed sequence) rather than restart, and the combined
// estimate must be bit-identical to a from-scratch run of the full budget.
func TestRefinement(t *testing.T) {
	s, ts := testServer(t, Options{})
	first := postEstimate(t, ts.URL, EstimateRequest{Graph: "line:16", P: 0.3, Trials: 256})
	if first.Served != "simulated" || first.Trials != 256 {
		t.Fatalf("first: %+v", first)
	}
	second := postEstimate(t, ts.URL, EstimateRequest{Graph: "line:16", P: 0.3, Trials: 1024})
	if second.Served != "refined" {
		t.Fatalf("second request not refined: %+v", second)
	}
	if second.Trials != 1024 || second.TrialsSimulated != 1024-256 {
		t.Fatalf("refinement ran wrong trial counts: %+v", second)
	}
	if s.Stats().Refines != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}

	// Ground truth: the refined estimate equals one full-budget run.
	g, err := faultcast.ParseGraph("line:16", 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultcast.Compile(faultcast.Config{
		Graph: g, Source: 0, Message: []byte("1"),
		Model: faultcast.MessagePassing, Fault: faultcast.Omission, P: 0.3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Estimate(1024)
	if err != nil {
		t.Fatal(err)
	}
	if second.Successes != want.Succeeds || second.Trials != want.Trials {
		t.Fatalf("refined %d/%d != ground truth %d/%d",
			second.Successes, second.Trials, want.Succeeds, want.Trials)
	}
}

// TestBackpressure: with all slots taken and no queue, an estimate request
// must be bounced with 429 and a Retry-After header, and admitted again
// once capacity frees up.
func TestBackpressure(t *testing.T) {
	s, ts := testServer(t, Options{MaxInflight: 1, MaxQueue: -1})
	s.slots <- struct{}{} // occupy the only execution slot

	body, _ := json.Marshal(EstimateRequest{Graph: "line:8", P: 0.2, Trials: 100})
	status, header, raw := postJSON(t, ts.URL, string(body))
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", status, raw)
	}
	if header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Code != "overloaded" {
		t.Fatalf("unstructured 429 body: %s", raw)
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}

	<-s.slots // free the slot
	er2 := postEstimate(t, ts.URL, EstimateRequest{Graph: "line:8", P: 0.2, Trials: 100})
	if er2.Served != "simulated" {
		t.Fatalf("post-release request not served: %+v", er2)
	}
}

// TestResultTTL: cached estimates do not expire. Every execution resumes
// from the tally store, so advancing the injected clock changes neither
// the answer nor trials_simulated — a repeat stays a zero-trial cache hit.
func TestResultTTL(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_750_000_000, 0)}
	s, ts := testServer(t, Options{Now: clock.now})
	req := EstimateRequest{Graph: "line:16", P: 0.3, Trials: 200}

	first := postEstimate(t, ts.URL, req)
	if first.Served != "simulated" {
		t.Fatalf("first: %+v", first)
	}
	if er := postEstimate(t, ts.URL, req); er.Served != "cache" {
		t.Fatalf("repeat: %+v", er)
	}
	clock.advance(24 * time.Hour)
	later := postEstimate(t, ts.URL, req)
	if later.Served != "cache" || later.TrialsSimulated != 0 {
		t.Fatalf("after a day on the clock: %+v", later)
	}
	sameBits(t, "after a day on the clock", later, first)
	if st := s.Stats(); st.Executions != 1 || st.TrialsSimulated != uint64(first.Trials) {
		t.Fatalf("stats after advancing the clock: %+v", st)
	}
}

// TestMemoryRefinementMatchesCold: without -store, refining a cached
// estimate to a half-width must land on the trial prefix a cold server
// picks for the same request — 396/448 on this scenario — because the
// stored prefix is replayed at the rule's own batch boundaries. Topping
// the cached 100-trial estimate up as one whole prefix would stop on a
// different one (400/452).
func TestMemoryRefinementMatchesCold(t *testing.T) {
	prime := EstimateRequest{Graph: "line:8", P: 0.5, Rounds: 18, Trials: 100}
	refine := EstimateRequest{Graph: "line:8", P: 0.5, Rounds: 18, HalfWidth: 0.03}

	_, coldTS := testServer(t, Options{})
	cold := postEstimate(t, coldTS.URL, refine)
	if cold.Successes != 396 || cold.Trials != 448 {
		t.Fatalf("cold answer %d/%d, want 396/448", cold.Successes, cold.Trials)
	}

	s, ts := testServer(t, Options{})
	if er := postEstimate(t, ts.URL, prime); er.Trials != 100 {
		t.Fatalf("prime: %+v", er)
	}
	got := postEstimate(t, ts.URL, refine)
	if got.Served != "refined" {
		t.Fatalf("second request not refined: %+v", got)
	}
	sameBits(t, "memory-mode refinement", got, cold)
	if st := s.Stats(); st.Refines != 1 || st.TrialsSimulated != uint64(100+got.TrialsSimulated) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAuxiliaryEndpoints(t *testing.T) {
	_, ts := testServer(t, Options{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/scenarios")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scenarios: %v %v", err, resp)
	}
	var sc ScenarioInfo
	if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sc.GraphFamilies) == 0 || len(sc.Algorithms) == 0 || sc.Limits.MaxNodes == 0 {
		t.Fatalf("thin scenario info: %+v", sc)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %v %v", err, resp)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Wrong method and unknown path answer structurally too.
	resp, err = http.Get(ts.URL + "/v1/estimate")
	if err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET estimate: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/nonsense")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %v %v", err, resp)
	}
	var nf ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&nf); err != nil || nf.Code != "not-found" {
		t.Fatalf("unstructured 404: %v %+v", err, nf)
	}
	resp.Body.Close()
}

// fakeClock is a mutex-guarded injectable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}
