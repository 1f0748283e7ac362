package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faultcast"
	"faultcast/internal/load"
	"faultcast/internal/rng"
	"faultcast/internal/service"
	"faultcast/internal/telemetry"
)

const (
	// serveRate is serve-mixed's offered Poisson arrival rate.
	serveRate = 80.0
	// latencyLimit is the answer-time limit: a request answered later
	// does not count toward goodput. It is not a failure: how often a
	// shared host's noise pushes an answer past it changes from run to
	// run, so it is counted on its own (load.over_limit).
	latencyLimit = 250 * time.Millisecond
	// After the window serve-mixed replays requests to measure CPU per
	// request: probeHot hot requests, taken in order from the window's and
	// timed in batches of probeBatch, and probeCold cold requests per
	// scenario and precision, timed one by one.
	probeHot, probeCold, probeBatch = 4000, 20, 50
	// serveWarmup fills the server's caches before the measured window;
	// its requests are issued but not recorded.
	serveWarmup = 2 * time.Second
)

// serveSpec is serve-mixed's request mix: load.Spec's hot/cold/sweep/
// half-width blend over its built-in scenarios.
func serveSpec(seed uint64, window time.Duration) load.Spec {
	return load.Spec{
		Rate: serveRate, Arrival: "poisson",
		Duration: window, Warmup: serveWarmup,
		Seed: seed, SweepFraction: 0.05, HotFraction: 0.8, KeyUniverse: 256,
		Trials: 1000, HalfWidth: 0.05, HalfWidthFraction: 0.25,
		MaxInflight: runtime.NumCPU(),
	}
}

// httpServer is an in-process HTTP server on a loopback listener.
type httpServer struct {
	url     string
	hs      *http.Server
	serving sync.WaitGroup
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for its serve loop to exit.
func (s *httpServer) close() {
	_ = s.hs.Close()
	s.serving.Wait()
}

func healthy(c *http.Client, url string) error {
	resp, err := c.Get(url + "/healthz")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/healthz: %s", url, resp.Status)
	}
	return nil
}

// served is one request's fate, timed from when it was due.
type served struct {
	class    string
	warm     bool
	due      time.Time
	lag      time.Duration // generator: fired − due
	queue    time.Duration // client: waiting for a connection slot
	latency  time.Duration // answered − due
	send     time.Duration // answered − sent
	ok       bool          // 200 with a well-formed, complete answer
	inLimit  bool          // ok, and answered within latencyLimit
	simTrial int
	traceID  string
	trace    *telemetry.Trace
	est      *service.EstimateResponse
	req      *service.EstimateRequest
}

// target is one server under test plus the open-loop client that drives it.
type target struct {
	svc    *service.Server
	srv    *httpServer
	client *http.Client
	slots  chan struct{} // one per client connection
}

func startTarget(opts service.Options) (*target, error) {
	svc := service.New(opts)
	srv, err := listen(svc.Handler())
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost, tr.MaxIdleConnsPerHost = conns, conns
	t := &target{svc: svc, srv: srv, client: &http.Client{Transport: tr, Timeout: time.Minute}, slots: make(chan struct{}, conns)}
	if err := healthy(t.client, srv.url); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *target) close() {
	t.srv.close()
	t.client.CloseIdleConnections()
}

// drive fires the schedule open loop: each request is sent at its due
// time whatever earlier requests are doing, waits for one of the client's
// connections, and is timed from when it was due. atWindow runs when the
// first measured (non-warm-up) request is due.
func (t *target) drive(sched []load.Request, atWindow func()) []served {
	out := make([]served, len(sched))
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	windowed := false
	for i, rq := range sched {
		due := start.Add(rq.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if !rq.Warm && !windowed {
			windowed = true
			if atWindow != nil {
				atWindow()
			}
		}
		fired := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = t.issue(rq, due, fired)
		}()
	}
	wg.Wait()
	return out
}

func (t *target) issue(rq load.Request, due, fired time.Time) served {
	s := served{class: rq.Class, warm: rq.Warm, due: due, lag: fired.Sub(due), req: rq.Estimate}
	t.slots <- struct{}{}
	defer func() { <-t.slots }()
	s.queue = time.Since(fired)
	path, payload := "/v1/estimate", any(rq.Estimate)
	if rq.Sweep != nil {
		path, payload = "/v1/sweep", rq.Sweep
	}
	body, _ := json.Marshal(payload)
	sent := time.Now()
	resp, err := t.client.Post(t.srv.url+path, "application/json", bytes.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.latency, s.send = time.Since(due), time.Since(sent)
	if err != nil || resp.StatusCode != http.StatusOK {
		return s
	}
	s.ok = true
	if rq.Sweep != nil {
		// NDJSON: cell lines, then the summary line.
		var sum service.SweepSummary
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if json.Unmarshal([]byte(lines[len(lines)-1]), &sum) != nil || !sum.Done || sum.Error != "" {
			s.ok = false
		}
		s.simTrial, s.traceID = sum.TrialsSimulated, sum.TraceID
	} else {
		var er service.EstimateResponse
		if json.Unmarshal(data, &er) != nil {
			s.ok = false
		}
		s.est, s.simTrial, s.traceID = &er, er.TrialsSimulated, er.TraceID
	}
	s.inLimit = s.ok && s.latency <= latencyLimit
	if col := t.svc.Traces(); col != nil && s.traceID != "" {
		// The trace is filed when the handler returns, before the
		// buffered response reaches the client; retry briefly anyway.
		for i := 0; i < 50 && s.trace == nil; i++ {
			if tr, ok := col.Get(s.traceID); ok {
				s.trace = tr
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}
	return s
}

// window is serve-mixed's measured slice of one driven schedule.
type window struct {
	reqs          []served
	seconds       float64
	cpu           float64 // process CPU seconds from the window's start to its last answer
	statsBefore   service.Stats
	statsAfter    service.Stats
	runtimeBefore *runtimeDelta
}

// serveOnce drives the schedule against t and returns the measured window.
func serveOnce(t *target, sched []load.Request, seconds float64) *window {
	w := &window{seconds: seconds}
	var cpu0 float64
	all := t.drive(sched, func() {
		w.statsBefore = t.svc.Stats()
		w.runtimeBefore = startRuntime()
		cpu0 = cpuSeconds()
	})
	w.cpu = cpuSeconds() - cpu0
	w.statsAfter = t.svc.Stats()
	for _, s := range all {
		if !s.warm {
			w.reqs = append(w.reqs, s)
		}
	}
	return w
}

func (w *window) ofClass(class string) []served {
	var out []served
	for _, s := range w.reqs {
		if s.class == class {
			out = append(out, s)
		}
	}
	return out
}

func (w *window) classMs(class string) []float64 {
	var xs []float64
	for _, s := range w.reqs {
		if s.class == class {
			xs = append(xs, ms(s.latency))
		}
	}
	return xs
}

func serveMixed(r *run) error {
	length := r.window
	if r.trace {
		length = r.window / 2 // untraced then traced, on the same schedule
	}
	var sched []load.Request
	var t *target
	err := setups(r, func() (err error) {
		if sched, err = serveSpec(r.seed, length).Schedule(); err != nil {
			return err
		}
		t, err = startTarget(service.Options{TraceRing: -1})
		return err
	}, func() { t.close() })
	if err != nil {
		return err
	}
	// Untraced (tracing disabled), and in a traced run then again on a
	// fresh server with default options, which trace every request.
	untraced := serveOnce(t, sched, length.Seconds())
	for _, s := range untraced.reqs {
		r.attempted++
		if !s.ok {
			r.failed++
		}
	}
	// CPU per request of each class: replay the window's requests one at
	// a time, hot ones on the warmed server and cold ones on a fresh
	// server (tracing disabled on both), where each must simulate.
	// The hot figure is the median batch, so a collection or a scheduler
	// hiccup in one batch does not move it; the cold one is the mean over
	// the whole fixed mix.
	var c costs
	hotReplies := t.probe(r, &c, true, untraced.hot(probeHot), probeBatch, runtime.NumCPU())
	t.close()
	ct, err := startTarget(service.Options{TraceRing: -1})
	if err != nil {
		return err
	}
	coldReqs := coldProbe(serveSpec(r.seed, length))
	coldReplies := ct.probe(r, &c, false, coldReqs, 1, 1)
	ct.close()
	checkEstimates(r, append(hotReplies, coldReplies...))
	for _, p := range coldReplies {
		c.trials += float64(p.simTrial)
	}
	c.cpu, c.ref = sum(c.cold)/1e3, sum(c.coldRef)/1e3 // trials per CPU second of the cold replay
	c.publish(r)
	// The window's answers checked against the library are the hot ones
	// (cold answers take the same path and the cold replay covers them;
	// checking every one would double the run's length on a slow host).
	w, checked := untraced, untraced.ofClass(load.ClassEstimateHot)
	if r.trace {
		tt, err := startTarget(service.Options{})
		if err != nil {
			return err
		}
		w = serveOnce(tt, sched, length.Seconds())
		tt.close()
		checked = append(checked, w.ofClass(load.ClassEstimateHot)...)
		for _, s := range w.reqs {
			r.attempted++
			if !s.ok {
				r.failed++
			}
		}
	}
	hotCells := checkEstimates(r, checked)

	// End-to-end figures come from the untraced window.
	u := untraced
	hot, cold := u.classMs(load.ClassEstimateHot), u.classMs(load.ClassEstimateCold)
	r.set("hot_p50_ms", "ms", quantile(hot, 0.50))
	r.set("hot_p99_ms", "ms", quantile(hot, 0.99))
	r.set("cold_p50_ms", "ms", quantile(cold, 0.50))
	r.set("cold_p99_ms", "ms", quantile(cold, 0.99))
	var good, trials int
	for _, s := range u.reqs {
		if s.inLimit {
			good++
		}
		trials += s.simTrial
	}
	r.set("cpu_ms_per_answer", "ms", u.cpu*1e3/float64(len(u.reqs)))
	r.set("goodput_rps", "1/s", float64(good)/u.seconds)
	r.set("trials_per_s", "trials/s", float64(trials)/u.seconds)
	r.set("wall_s", "s", u.drain())
	r.set("max_rss_mb", "MiB", maxRSSMiB())
	r.set("ok_frac", "ratio", float64(r.attempted-r.failed)/float64(max(r.attempted, 1)))
	if !r.trace {
		return nil
	}
	l := newLedger()
	serveLayers(r, l, w)
	for _, c := range hotCells {
		l.add("stat.trials_to_decide", float64(c.trials))
		if c.trials >= 1000 {
			l.add("stat.cells_at_budget", 1)
		}
	}
	l.publish(r, 1)
	hu, ht := median(hot), median(w.classMs(load.ClassEstimateHot))
	r.set("telemetry.overhead_frac", "ratio", ht/hu-1)
	return nil
}

// hot returns n answered hot estimate requests: the window's, in
// schedule order, repeated as often as it takes.
func (w *window) hot(n int) []served {
	var all []served
	for _, s := range w.reqs {
		if s.class == load.ClassEstimateHot && s.req != nil && s.ok {
			all = append(all, s)
		}
	}
	var out []served
	for len(all) > 0 && len(out) < n {
		out = append(out, all[len(out)%len(all)])
	}
	return out
}

// coldProbe generates serve-mixed's cold replay set from the spec's seed:
// probeCold requests per scenario with the half-width and probeCold
// without, each with its own cold key, so the mix is the same whatever
// the seed and each request runs on a fresh server.
func coldProbe(spec load.Spec) []served {
	spec = spec.Normalized()
	src := rng.New(spec.Seed)
	var out []served
	for _, sc := range spec.Scenarios {
		used := map[uint64]bool{}
		for _, hw := range []float64{0, spec.HalfWidth} {
			for k := 0; k < probeCold; {
				seed := 2 + uint64(src.Intn(spec.KeyUniverse)) // 1 is the hot seed
				if used[seed] {
					continue
				}
				used[seed] = true
				k++
				out = append(out, served{class: load.ClassEstimateCold, req: &service.EstimateRequest{
					Graph: sc.Graph, P: sc.P, Trials: spec.Trials, Seed: seed, HalfWidth: hw,
				}})
			}
		}
	}
	return out
}

// probe replays reqs against t, closed loop over conns connections, in
// consecutive batches of the given size. It adds each batch's process CPU
// time per request (client and server: both run in this process) to c,
// with the kernel time measured on either side of the batch, and returns
// the replies. A cold request must simulate and a hot one must not;
// checkEstimates then checks the answers.
func (t *target) probe(r *run, c *costs, hot bool, reqs []served, batch, conns int) []served {
	if len(reqs) == 0 {
		r.fail("no requests to replay")
		return nil
	}
	out := make([]served, len(reqs))
	k0 := r.speed.at()
	runtime.GC()
	for lo := 0; lo < len(reqs); lo += batch {
		hi := min(lo+batch, len(reqs))
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		cpu0 := cpuSeconds()
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < hi; i = int(next.Add(1) - 1) {
					now := time.Now()
					out[i] = t.issue(load.Request{Class: reqs[i].class, Estimate: reqs[i].req}, now, now)
				}
			}()
		}
		wg.Wait()
		cpu := (cpuSeconds() - cpu0) * 1e3
		k1 := r.speed.at()
		c.add(hot, cpu/float64(hi-lo), hi-lo, (k0+k1)/2)
		k0 = k1
	}
	for _, p := range out {
		r.attempted++
		if !p.ok {
			r.failed++
			r.fail("replayed %s request %+v not answered", p.class, *p.req)
		} else if (p.simTrial > 0) != (p.class == load.ClassEstimateCold) {
			r.fail("replayed %s request %+v simulated %d trials", p.class, *p.req, p.simTrial)
		}
	}
	return out
}

// drain is the time from the first measured request's due time to the
// last measured answer.
func (w *window) drain() float64 {
	var first, last time.Time
	for _, s := range w.reqs {
		if first.IsZero() || s.due.Before(first) {
			first = s.due
		}
		if done := s.due.Add(s.latency); done.After(last) {
			last = done
		}
	}
	return last.Sub(first).Seconds()
}

// serveLayers derives the service, sim, load and runtime metrics of a
// traced window from the server's counters and its request traces, and
// keeps the traces for the span dump.
func serveLayers(r *run, l *ledger, w *window) {
	if w.runtimeBefore != nil { // nil when every request fell in the warm-up
		w.runtimeBefore.finish(l)
	}
	b, a := w.statsBefore, w.statsAfter
	est := float64(a.EstimateRequests - b.EstimateRequests)
	if est > 0 {
		l.add("service.cache_hit_frac", float64(a.CacheHits-b.CacheHits)/est)
	}
	if pl := float64(a.PlanCacheHits - b.PlanCacheHits + a.PlanCompiles - b.PlanCompiles); pl > 0 {
		l.add("service.plan_cache_hit_frac", float64(a.PlanCacheHits-b.PlanCacheHits)/pl)
	}
	l.add("faultcast.plans", float64(a.PlanCompiles-b.PlanCompiles))
	l.add("service.executions", float64(a.Executions-b.Executions))
	l.add("service.refines", float64(a.Refines-b.Refines))
	l.add("service.coalesced", float64(a.Coalesced-b.Coalesced))
	l.add("service.rejected", float64(a.Rejected-b.Rejected))
	workers := float64(runtime.GOMAXPROCS(0))
	for _, s := range w.reqs {
		l.sample("load.lag", ms(s.lag))
		l.sample("load.client_queue", ms(s.queue))
		if s.ok && !s.inLimit {
			l.add("load.over_limit", 1)
		}
		if s.trace == nil {
			continue
		}
		r.spans = append(r.spans, s.trace.Export())
		root := s.trace.Root()
		l.sample("service.server", float64(root.DurNs)/1e6)
		l.sample("service.transport", ms(s.send)-float64(root.DurNs)/1e6)
		walk(root, "", func(sp *telemetry.Span, _ string) {
			d := float64(sp.DurNs) / 1e9
			switch sp.Name {
			case "admission":
				l.add("service.admission_wait_s", d)
				l.sample("service.admission_wait", d*1e3)
			case "compile":
				l.add("faultcast.compile_s", d)
			case "execute":
				l.add("service.execute_s", d)
				core := attr(sp, "core")
				if core == "" {
					break
				}
				engine := attrDur(sp, "engine_time").Seconds()
				l.add("sim."+core+".trials", attrInt(sp, "batch_trials"))
				l.add("sim."+core+".busy_s", engine)
				l.add("exec.batches", attrInt(sp, "batches"))
				l.add("self.sim_s", engine/workers)
				l.add("self.exec_s", -engine/workers)
			}
		})
		selfTimes(l, root, "")
	}
}

// checkEstimates verifies every answered estimate against the library:
// Plan.Estimate of the same config and seed at the answer's trial count
// must give the same successes (and a budget-only request must get the
// whole budget). It returns the cold-run oracle of each hot-key
// requirement, serve-mixed's stop-rule drift guard.
func checkEstimates(r *run, reqs []served) []tally {
	type keyed struct {
		plan *faultcast.Plan
		seed uint64
	}
	plans := map[string]keyed{}
	answers := map[string]int{} // "<key>/<seed>/<trials>" → successes
	for _, s := range reqs {
		if s.est == nil || !s.ok {
			continue
		}
		q := s.req
		seed := max(q.Seed, 1)
		pk := fmt.Sprintf("%s/%v/%d", q.Graph, q.P, seed)
		kp, ok := plans[pk]
		if !ok {
			g, err := faultcast.ParseGraph(q.Graph, 1)
			if err != nil {
				r.fail("%s graph %q: %v", s.class, q.Graph, err)
				continue
			}
			plan, err := faultcast.Compile(faultcast.Config{Graph: g, Message: []byte("1"), P: q.P, Seed: seed})
			if err != nil {
				r.fail("%s config %q p=%v: %v", s.class, q.Graph, q.P, err)
				continue
			}
			kp = keyed{plan, seed}
			plans[pk] = kp
		}
		if s.est.Key != kp.plan.Key() {
			r.fail("%s answer key %s, library key %s", s.class, s.est.Key, kp.plan.Key())
			continue
		}
		if q.HalfWidth == 0 && s.est.Trials != q.Trials {
			r.fail("%s answer for %s has %d trials, want the %d-trial budget", s.class, q.Graph, s.est.Trials, q.Trials)
		}
		k := fmt.Sprintf("%s/%d/%d", kp.plan.Key(), seed, s.est.Trials)
		want, ok := answers[k]
		if !ok {
			e, err := kp.plan.Estimate(s.est.Trials, faultcast.WithBaseSeed(seed))
			if err != nil {
				r.fail("library estimate: %v", err)
				continue
			}
			want = e.Succeeds
			answers[k] = want
		}
		if s.est.Successes != want {
			r.fail("%s answer %s seed %d at %d trials: %d successes, library %d", s.class, q.Graph, seed, s.est.Trials, s.est.Successes, want)
		}
	}
	var oracle []tally
	for _, kp := range plans {
		if kp.seed != 1 {
			continue
		}
		for _, hw := range []float64{0, 0.05} {
			e, err := kp.plan.Estimate(1000, faultcast.WithBaseSeed(1), faultcast.WithHalfWidth(hw))
			if err == nil {
				oracle = append(oracle, tally{e.Trials, e.Succeeds})
			}
		}
	}
	return oracle
}
