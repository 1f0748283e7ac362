// Package load is faultcastd's open-loop service load harness: it
// compiles a declarative workload mix into a deterministic, seeded
// request schedule, fires it at a server at the offered rate regardless
// of how fast the server answers (open loop — a slow server faces a
// growing backlog, exactly like production traffic), and reports
// per-class latency histograms, achieved vs offered throughput, and
// error/429/cancel rates. faultcastctl bench drives it and joins the
// client-side picture with the server's /v1/stats deltas into
// BENCH_service.json.
//
// Determinism: the schedule — arrival times, class choices, scenario
// picks, hot/cold key draws, budget-vs-precision draws — is a pure
// function of the Spec (including its Seed). Two runs of the same spec
// issue byte-identical request sequences at the same offsets; only the
// measured latencies differ. That makes A/B runs attributable: change
// one server option and every response delta is the server's.
//
// Open vs closed loop: a closed-loop driver (fixed worker count, next
// request after the previous answer) lets a slow server throttle its own
// load, hiding queueing delay exactly when it matters. The open-loop
// schedule keeps offering work at the configured rate; client-side
// backlog shows up as latency and, past MaxInflight, as dropped
// requests — both reported, never silently absorbed.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"faultcast/internal/hist"
	"faultcast/internal/rng"
	"faultcast/internal/service"
)

// Request classes. Hot estimates reuse a scenario's base key (cache and
// coalescing territory); cold estimates draw a seed from the bounded key
// universe (mostly-miss territory); sweeps occupy one admission slot for
// a whole grid.
const (
	ClassEstimateHot  = "estimate-hot"
	ClassEstimateCold = "estimate-cold"
	ClassSweep        = "sweep"
)

// Scenario is one weighted entry of the workload's scenario list.
type Scenario struct {
	Graph  string  `json:"graph"`
	P      float64 `json:"p"`
	Weight float64 `json:"weight"` // relative draw weight; <= 0 means 1
}

// Spec is the declarative workload. Rate and Duration are required;
// everything else defaults via withDefaults.
type Spec struct {
	// Rate is the offered arrival rate in requests/second; Arrival is
	// "constant" (evenly spaced, default) or "poisson" (exponential
	// inter-arrivals — bursty, the service-capacity stress shape).
	Rate    float64 `json:"rate"`
	Arrival string  `json:"arrival"`
	// Duration is the measured window; Warmup precedes it (warmup
	// requests are issued — filling caches and JITting the server — but
	// excluded from every reported number).
	Duration time.Duration `json:"-"`
	Warmup   time.Duration `json:"-"`
	// DurationSeconds/WarmupSeconds are the JSON renderings of the above.
	DurationSeconds float64 `json:"duration_s"`
	WarmupSeconds   float64 `json:"warmup_s"`
	// MaxInflight caps concurrent in-flight requests on the CLIENT; an
	// arrival finding the cap exhausted is dropped and counted (the
	// open-loop backlog made visible), never queued (default 512).
	MaxInflight int `json:"max_inflight"`
	// Seed makes the schedule reproducible (default 1).
	Seed uint64 `json:"seed"`
	// Scenarios is the weighted scenario list (default: a small built-in
	// spread over grid/line/ring topologies).
	Scenarios []Scenario `json:"scenarios"`
	// SweepFraction of arrivals are sweep requests; the rest are
	// estimates. HotFraction of the estimates (and sweeps) reuse their
	// scenario's base seed — the hot key — while the rest draw one of
	// KeyUniverse cold seeds, so the hot/cold cache ratio is a dial.
	SweepFraction float64 `json:"sweep_fraction"`
	HotFraction   float64 `json:"hot_fraction"`
	KeyUniverse   int     `json:"key_universe"`
	// Trials is the fixed per-request budget (0 = server default).
	// HalfWidthFraction of estimate requests additionally state HalfWidth
	// as a precision target instead of relying on the raw budget — the
	// ruled-replay path over stored prefixes.
	Trials            int     `json:"trials"`
	HalfWidth         float64 `json:"half_width,omitempty"`
	HalfWidthFraction float64 `json:"half_width_fraction,omitempty"`
	// SweepPs is the p-axis of generated sweep requests (default
	// 0.2/0.5/0.8 over the drawn scenario's graph).
	SweepPs []float64 `json:"sweep_ps,omitempty"`
}

// Normalized returns the spec with every default resolved and the JSON
// duration renderings filled in — the form worth persisting in a bench
// artifact, since it names the workload completely.
func (s Spec) Normalized() Spec { return s.withDefaults() }

func (s Spec) withDefaults() Spec {
	if s.Arrival == "" {
		s.Arrival = "constant"
	}
	if s.MaxInflight <= 0 {
		s.MaxInflight = 512
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Scenarios) == 0 {
		s.Scenarios = []Scenario{
			{Graph: "grid:6x6", P: 0.5, Weight: 3},
			{Graph: "line:32", P: 0.3, Weight: 2},
			{Graph: "ring:24", P: 0.4, Weight: 1},
		}
	}
	if s.KeyUniverse <= 0 {
		s.KeyUniverse = 1024
	}
	if len(s.SweepPs) == 0 {
		s.SweepPs = []float64{0.2, 0.5, 0.8}
	}
	s.DurationSeconds = s.Duration.Seconds()
	s.WarmupSeconds = s.Warmup.Seconds()
	return s
}

func (s Spec) validate() error {
	if s.Rate <= 0 {
		return fmt.Errorf("load: rate %v must be positive", s.Rate)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("load: duration %v must be positive", s.Duration)
	}
	if s.Arrival != "constant" && s.Arrival != "poisson" {
		return fmt.Errorf("load: arrival %q is neither constant nor poisson", s.Arrival)
	}
	if s.SweepFraction < 0 || s.SweepFraction > 1 {
		return fmt.Errorf("load: sweep_fraction %v outside [0, 1]", s.SweepFraction)
	}
	if s.HotFraction < 0 || s.HotFraction > 1 {
		return fmt.Errorf("load: hot_fraction %v outside [0, 1]", s.HotFraction)
	}
	if s.HalfWidthFraction < 0 || s.HalfWidthFraction > 1 {
		return fmt.Errorf("load: half_width_fraction %v outside [0, 1]", s.HalfWidthFraction)
	}
	if s.HalfWidthFraction > 0 && s.HalfWidth <= 0 {
		return fmt.Errorf("load: half_width_fraction set without a half_width")
	}
	return nil
}

// Request is one scheduled arrival: an offset from run start, a class
// label, the warmup flag, and exactly one of the two request bodies.
type Request struct {
	At       time.Duration
	Class    string
	Warm     bool // inside the warmup window: issued but not recorded
	Estimate *service.EstimateRequest
	Sweep    *service.SweepRequest
}

// Schedule expands the spec into its full, deterministic arrival
// sequence. All randomness comes from one splitmix stream seeded by
// Spec.Seed, drawn in a fixed per-request order — equal specs produce
// equal schedules, element for element.
func (s Spec) Schedule() ([]Request, error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	var totalWeight float64
	weights := make([]float64, len(s.Scenarios))
	for i, sc := range s.Scenarios {
		w := sc.Weight
		if w <= 0 {
			w = 1
		}
		weights[i] = w
		totalWeight += w
	}
	r := rng.New(s.Seed)
	horizon := s.Warmup + s.Duration
	var sched []Request
	var at time.Duration
	for i := 0; ; i++ {
		switch s.Arrival {
		case "constant":
			at = time.Duration(float64(i) / s.Rate * float64(time.Second))
		case "poisson":
			if i > 0 {
				// Exponential inter-arrival: -ln(1-U)/rate. 1-U keeps the
				// argument away from log(0).
				at += time.Duration(-math.Log(1-r.Float64()) / s.Rate * float64(time.Second))
			}
		}
		if at >= horizon {
			break
		}
		// Fixed draw order per arrival — class, scenario, hot/cold,
		// cold key, precision — so the sequence is stable even though
		// some draws go unused on some paths.
		classDraw := r.Float64()
		scenario := s.Scenarios[weightedIndex(weights, totalWeight, r.Float64())]
		hot := r.Float64() < s.HotFraction
		coldKey := 2 + uint64(r.Intn(s.KeyUniverse)) // 1 is the hot seed
		precision := r.Float64() < s.HalfWidthFraction
		seed := uint64(1)
		if !hot {
			seed = coldKey
		}
		rq := Request{At: at, Warm: at < s.Warmup}
		if classDraw < s.SweepFraction {
			rq.Class = ClassSweep
			rq.Sweep = &service.SweepRequest{
				Graphs: []string{scenario.Graph},
				Ps:     s.SweepPs,
				Trials: s.Trials,
				Seed:   seed,
			}
		} else {
			er := &service.EstimateRequest{
				Graph:  scenario.Graph,
				P:      scenario.P,
				Trials: s.Trials,
				Seed:   seed,
			}
			if precision {
				er.HalfWidth = s.HalfWidth
			}
			rq.Class = ClassEstimateCold
			if hot {
				rq.Class = ClassEstimateHot
			}
			rq.Estimate = er
		}
		sched = append(sched, rq)
	}
	if len(sched) == 0 {
		return nil, fmt.Errorf("load: rate %v over %v schedules no arrivals", s.Rate, horizon)
	}
	return sched, nil
}

// weightedIndex maps a uniform draw u in [0,1) to a scenario index by
// cumulative weight.
func weightedIndex(weights []float64, total, u float64) int {
	target := u * total
	var cum float64
	for i, w := range weights {
		cum += w
		if target < cum {
			return i
		}
	}
	return len(weights) - 1
}

// ClassReport aggregates one request class over the measured window.
type ClassReport struct {
	Class string `json:"class"`
	// Count = OK + Rejected + Errors (completed requests); Dropped
	// arrivals never left the client (inflight cap) and are counted
	// separately.
	Count    int `json:"count"`
	OK       int `json:"ok"`
	Rejected int `json:"rejected"` // HTTP 429
	Errors   int `json:"errors"`   // transport errors and non-200/429 statuses
	Dropped  int `json:"dropped"`
	// Latency summarizes successful responses only — a 429 answers in
	// microseconds and would flatter every percentile.
	Latency hist.Summary `json:"latency"`
}

// Report is the client-side outcome of one Run.
type Report struct {
	// Scheduled counts measured-window arrivals; Issued those that got an
	// inflight slot; Warmup the arrivals before the window.
	Scheduled int `json:"scheduled"`
	Issued    int `json:"issued"`
	Dropped   int `json:"dropped"`
	Warmup    int `json:"warmup_requests"`
	// OfferedRate is Scheduled over the configured duration; AchievedRate
	// counts OK responses over the measured wall time (window start to
	// last response).
	OfferedRate  float64 `json:"offered_rate"`
	AchievedRate float64 `json:"achieved_rate"`
	ElapsedS     float64 `json:"elapsed_s"`
	// RejectRate is 429s over completed requests; ErrorRate likewise.
	RejectRate float64       `json:"reject_rate"`
	ErrorRate  float64       `json:"error_rate"`
	Classes    []ClassReport `json:"classes"`
}

// Class returns the report for one class (zero value when absent).
func (r *Report) Class(name string) ClassReport {
	for _, c := range r.Classes {
		if c.Class == name {
			return c
		}
	}
	return ClassReport{Class: name}
}

// Options tunes a Run.
type Options struct {
	// Client is the HTTP client (default: 2-minute timeout).
	Client *http.Client
	// OnWarmupDone fires once, after the last warmup arrival is issued
	// and before the first measured one — the moment to snapshot
	// /v1/stats so deltas cover exactly the measured window.
	OnWarmupDone func()
}

type classAgg struct {
	count, ok, rejected, errors, dropped int
	hist                                 hist.Histogram
}

// Run executes the spec's schedule against the server at base URL. It
// returns once every issued request has been answered; ctx cancellation
// aborts the remaining schedule (already-issued requests still drain).
func Run(ctx context.Context, baseURL string, spec Spec, opts Options) (*Report, error) {
	spec = spec.withDefaults()
	sched, err := spec.Schedule()
	if err != nil {
		return nil, err
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}

	var mu sync.Mutex // guards aggs + the issue/drop tallies
	aggs := map[string]*classAgg{}
	aggOf := func(class string) *classAgg {
		a, ok := aggs[class]
		if !ok {
			a = &classAgg{}
			aggs[class] = a
		}
		return a
	}

	rep := &Report{}
	sem := make(chan struct{}, spec.MaxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	warmupDone := false
	var windowStart time.Time
	var lastResponse time.Time

	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
schedule:
	for _, rq := range sched {
		timer.Reset(time.Until(start.Add(rq.At)))
		select {
		case <-timer.C:
		case <-ctx.Done():
			break schedule
		}
		if !rq.Warm && !warmupDone {
			// The measured window opens at the first measured arrival —
			// AFTER its scheduled time has passed, so the stats snapshot
			// taken in OnWarmupDone sits between the warmup arrivals and
			// every measured one.
			warmupDone = true
			if opts.OnWarmupDone != nil {
				opts.OnWarmupDone()
			}
			windowStart = time.Now()
		}
		if !rq.Warm {
			rep.Scheduled++
		}
		select {
		case sem <- struct{}{}:
		default:
			// Open loop: the arrival happened whether or not the client
			// can carry it. Past the inflight cap it is dropped and
			// counted, not queued (queueing would close the loop).
			if !rq.Warm {
				mu.Lock()
				rep.Dropped++
				aggOf(rq.Class).dropped++
				mu.Unlock()
			}
			continue
		}
		if !rq.Warm {
			rep.Issued++
		} else {
			rep.Warmup++
		}
		wg.Add(1)
		go func(rq Request) {
			defer wg.Done()
			defer func() { <-sem }()
			status, latency, err := issue(ctx, client, baseURL, rq)
			if rq.Warm {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if t := time.Now(); t.After(lastResponse) {
				lastResponse = t
			}
			a := aggOf(rq.Class)
			a.count++
			switch {
			case err != nil:
				a.errors++
			case status == http.StatusOK:
				a.ok++
				a.hist.Observe(latency)
			case status == http.StatusTooManyRequests:
				a.rejected++
			default:
				a.errors++
			}
		}(rq)
	}
	wg.Wait()

	if windowStart.IsZero() { // ctx canceled inside the warmup
		windowStart = start
	}
	if lastResponse.IsZero() {
		lastResponse = windowStart
	}
	rep.ElapsedS = lastResponse.Sub(windowStart).Seconds()
	rep.OfferedRate = float64(rep.Scheduled) / spec.Duration.Seconds()
	var totalOK, totalRejected, totalErrors, totalCount int
	for class, a := range aggs {
		totalOK += a.ok
		totalRejected += a.rejected
		totalErrors += a.errors
		totalCount += a.count
		rep.Classes = append(rep.Classes, ClassReport{
			Class:    class,
			Count:    a.count,
			OK:       a.ok,
			Rejected: a.rejected,
			Errors:   a.errors,
			Dropped:  a.dropped,
			Latency:  a.hist.Snapshot().Summarize(),
		})
	}
	sort.Slice(rep.Classes, func(i, j int) bool { return rep.Classes[i].Class < rep.Classes[j].Class })
	if rep.ElapsedS > 0 {
		rep.AchievedRate = float64(totalOK) / rep.ElapsedS
	}
	if totalCount > 0 {
		rep.RejectRate = float64(totalRejected) / float64(totalCount)
		rep.ErrorRate = float64(totalErrors) / float64(totalCount)
	}
	return rep, nil
}

// issue posts one scheduled request and reports its status and latency.
// Sweep responses stream NDJSON; the latency covers the full body — a
// sweep is not "answered" until its summary line lands.
func issue(ctx context.Context, client *http.Client, baseURL string, rq Request) (status int, latency time.Duration, err error) {
	var path string
	var payload any
	switch {
	case rq.Estimate != nil:
		path, payload = "/v1/estimate", rq.Estimate
	case rq.Sweep != nil:
		path, payload = "/v1/sweep", rq.Sweep
	default:
		return 0, 0, fmt.Errorf("load: request with no body")
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, time.Since(t0), err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, time.Since(t0), err
}
