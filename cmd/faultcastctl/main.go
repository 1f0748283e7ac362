// Command faultcastctl is the client of faultcastd.
//
//	faultcastctl [-addr URL] health                 liveness check
//	faultcastctl [-addr URL] scenarios              request vocabulary + limits
//	faultcastctl [-addr URL] stats [-out FILE]      request/cache counters
//	faultcastctl [-addr URL] estimate -graph SPEC -p P [flags]
//	faultcastctl [-addr URL] sweep -graphs A,B -ps P1,P2 [flags]
//	faultcastctl [-addr URL] workers                coordinator fleet health
//	faultcastctl [-addr URL] smoke [flags]          concurrent load smoke test
//	faultcastctl [-addr URL] bench [flags]          open-loop service load bench
//
// smoke fires a burst of concurrent identical estimation requests plus a
// spread of distinct ones, verifies every answer, and checks that the
// server amortized the identical burst (cache hits + coalescing, not one
// execution per request). CI runs it against a race-built faultcastd and
// archives the resulting /v1/stats snapshot next to BENCH_engine.json.
//
// bench drives internal/load's deterministic open-loop schedule at the
// server: a seeded mix of hot/cold estimates and sweeps arriving at a
// configured rate (constant or Poisson), reported as per-class latency
// percentiles, achieved vs offered throughput, and the server's
// /v1/stats deltas over the measured window. -out writes
// BENCH_service.json; -slo turns the run into a CI gate
// (-slo p95=250ms,reject_rate=0.05 exits non-zero on violation).
//
// sweep streams a /v1/sweep grid; -sort reorders the NDJSON cell lines
// into index order, making the output a deterministic artifact — the
// cluster CI job diffs a coordinator-run sweep against a single-node one
// byte for byte. workers renders a coordinator's per-worker health, shard
// counters, and plan-cache hit rates from /v1/stats.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"faultcast/internal/service"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8347", "faultcastd base URL")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: faultcastctl [-addr URL] {health|scenarios|stats|trace|metrics|estimate|sweep|workers|smoke|bench|store} [flags]")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	c := &client{base: *addr, http: &http.Client{Timeout: 5 * time.Minute}}
	var err error
	switch args[0] {
	case "health":
		err = c.getJSONPrint("/healthz")
	case "scenarios":
		err = c.getJSONPrint("/v1/scenarios")
	case "stats":
		err = cmdStats(c, args[1:])
	case "trace":
		err = cmdTrace(c, args[1:])
	case "metrics":
		err = cmdMetrics(c, args[1:])
	case "estimate":
		err = cmdEstimate(c, args[1:])
	case "sweep":
		err = cmdSweep(c, args[1:])
	case "workers":
		err = cmdWorkers(c)
	case "smoke":
		err = cmdSmoke(c, args[1:])
	case "bench":
		err = cmdBench(c, args[1:])
	case "store":
		err = cmdStore(args[1:])
	default:
		err = fmt.Errorf("unknown command %q", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultcastctl:", err)
		os.Exit(1)
	}
}

type client struct {
	base string
	http *http.Client
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body, nil
}

func (c *client) getJSONPrint(path string) error {
	body, err := c.get(path)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(body)
	return err
}

// estimate posts one request and decodes the answer; on a non-2xx status
// the structured error is returned along with the HTTP status code.
func (c *client) estimate(req service.EstimateRequest) (service.EstimateResponse, int, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return service.EstimateResponse{}, 0, err
	}
	resp, err := c.http.Post(c.base+"/v1/estimate", "application/json", bytes.NewReader(payload))
	if err != nil {
		return service.EstimateResponse{}, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return service.EstimateResponse{}, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		var er service.ErrorResponse
		if json.Unmarshal(body, &er) == nil && er.Error != "" {
			return service.EstimateResponse{}, resp.StatusCode, fmt.Errorf("%s (code=%s)", er.Error, er.Code)
		}
		return service.EstimateResponse{}, resp.StatusCode, fmt.Errorf("%s: %s", resp.Status, body)
	}
	var er service.EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		return service.EstimateResponse{}, resp.StatusCode, err
	}
	return er, resp.StatusCode, nil
}

func cmdStats(c *client, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	out := fs.String("out", "", "also write the stats JSON to this file")
	watch := fs.Duration("watch", 0, "poll every interval and print a compact delta line (reqs/s, hit rate, p95 by endpoint) instead of the JSON dump")
	count := fs.Int("count", 0, "with -watch, stop after this many intervals (0 = until interrupted)")
	fs.Parse(args)
	if *watch > 0 {
		return watchStats(c, *watch, *count)
	}
	body, err := c.get("/v1/stats")
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, body, 0o644); err != nil {
			return err
		}
	}
	_, err = os.Stdout.Write(body)
	return err
}

func cmdEstimate(c *client, args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	var req service.EstimateRequest
	fs.StringVar(&req.Graph, "graph", "", "graph spec (required), e.g. grid:8x8")
	fs.IntVar(&req.Source, "source", 0, "broadcast source node")
	fs.StringVar(&req.Message, "message", "", "source message (default \"1\")")
	fs.StringVar(&req.Model, "model", "", "mp | radio")
	fs.StringVar(&req.Fault, "fault", "", "omission | malicious | limited")
	fs.Float64Var(&req.P, "p", 0.3, "per-step transmitter failure probability")
	fs.StringVar(&req.Algorithm, "algo", "", "algorithm (default auto)")
	fs.StringVar(&req.Adversary, "adversary", "", "worst | crash | flip | noise")
	fs.Float64Var(&req.WindowC, "c", 0, "window constant override")
	fs.Float64Var(&req.Alpha, "alpha", 0, "Theorem 3.2 exponent for composed")
	fs.Uint64Var(&req.Seed, "seed", 0, "base seed (default 1)")
	fs.IntVar(&req.Rounds, "rounds", 0, "round-horizon override")
	fs.IntVar(&req.Trials, "trials", 0, "trial budget (default server's)")
	fs.Float64Var(&req.HalfWidth, "half-width", 0, "stop once the 95% half-width reaches this")
	fs.Parse(args)
	if req.Graph == "" {
		return fmt.Errorf("estimate: -graph is required")
	}
	er, _, err := c.estimate(req)
	if err != nil {
		return err
	}
	fmt.Printf("rate %.4f [%.4f, %.4f] (%d/%d trials, half-width %.4f)\n",
		er.Rate, er.Low, er.High, er.Successes, er.Trials, er.HalfWidth)
	fmt.Printf("almost-safe (>= %.4f): %v\n", er.AlmostSafeTarget, er.Almostsafe)
	fmt.Printf("served: %s (%d trials simulated for this request), plan horizon %d rounds, n=%d\n",
		er.Served, er.TrialsSimulated, er.Rounds, er.N)
	return nil
}

// cmdSweep posts a sweep and streams its NDJSON. With -sort, cell lines
// are buffered and re-emitted in index order (completion order is
// scheduling-dependent; index order is deterministic), followed by the
// summary line — so two runs of the same grid on any topology of
// machines produce byte-identical files.
func cmdSweep(c *client, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	graphs := fs.String("graphs", "", "comma-separated graph specs (required), e.g. grid:6x6,line:32")
	ps := fs.String("ps", "", "comma-separated failure probabilities (required)")
	models := fs.String("models", "", "comma-separated model axis (mp, radio)")
	faults := fs.String("faults", "", "comma-separated fault axis")
	algos := fs.String("algos", "", "comma-separated algorithm axis")
	trials := fs.Int("trials", 0, "per-cell trial budget (default server's)")
	seed := fs.Uint64("seed", 0, "sweep master seed (default 1)")
	almostSafe := fs.Bool("almost-safe", false, "stop each cell once decided against its almost-safety bound")
	sortCells := fs.Bool("sort", false, "emit cell lines in index order instead of completion order")
	out := fs.String("out", "", "also write the NDJSON to this file")
	fs.Parse(args)
	if *graphs == "" || *ps == "" {
		return fmt.Errorf("sweep: -graphs and -ps are required")
	}
	req := service.SweepRequest{
		Graphs:         splitList(*graphs),
		Models:         splitList(*models),
		Faults:         splitList(*faults),
		Algorithms:     splitList(*algos),
		Trials:         *trials,
		Seed:           *seed,
		AlmostSafeStop: *almostSafe,
	}
	for _, p := range splitList(*ps) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return fmt.Errorf("sweep: bad p %q", p)
		}
		req.Ps = append(req.Ps, v)
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+"/v1/sweep", "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("sweep: %s: %s", resp.Status, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !*sortCells {
		// Stream: the server flushes each cell as it decides, so the grid
		// fills in live on stdout (and in -out, line by line).
		var outFile *os.File
		if *out != "" {
			var err error
			if outFile, err = os.Create(*out); err != nil {
				return err
			}
			defer outFile.Close()
		}
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			fmt.Println(line)
			if outFile != nil {
				fmt.Fprintln(outFile, line)
			}
		}
		return sc.Err()
	}
	// -sort: buffer, reorder cells by index, emit the summary last — a
	// deterministic artifact two runs of the same grid reproduce byte for
	// byte whatever the completion order was.
	type cellLine struct {
		index int
		line  string
	}
	var cells []cellLine
	var tail []string // the summary (and anything unrecognized), in arrival order
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		var probe struct {
			Index *int `json:"index"`
		}
		if json.Unmarshal([]byte(line), &probe) == nil && probe.Index != nil {
			cells = append(cells, cellLine{index: *probe.Index, line: line})
		} else {
			tail = append(tail, line)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	var buf bytes.Buffer
	sort.Slice(cells, func(i, j int) bool { return cells[i].index < cells[j].index })
	for _, cl := range cells {
		fmt.Fprintln(&buf, cl.line)
	}
	for _, line := range tail {
		fmt.Fprintln(&buf, line)
	}
	if *out != "" {
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	_, err = os.Stdout.Write(buf.Bytes())
	return err
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// cmdWorkers renders a coordinator's fleet view from /v1/stats: one line
// per configured worker with health, shard counters, and the plan-cache
// hit rate of its shards, then the coordinator's dispatch totals.
func cmdWorkers(c *client) error {
	body, err := c.get("/v1/stats")
	if err != nil {
		return err
	}
	var st service.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	if st.Cluster == nil {
		fmt.Println("no workers configured (the server is not a coordinator; start faultcastd with -workers)")
		return nil
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKER\tSTATE\tINFLIGHT\tOK\tFAILED\tCONSEC\tTRIALS\tPLAN CACHE\tLAST ERROR")
	for _, w := range st.Cluster.Workers {
		state := "up"
		if !w.Healthy {
			state = fmt.Sprintf("down %.0fs", w.DownForSeconds)
		}
		hitRate := "-"
		if total := w.PlanCacheHits + w.PlanCompiles; total > 0 {
			hitRate = fmt.Sprintf("%d/%d (%.0f%%)", w.PlanCacheHits, total, 100*float64(w.PlanCacheHits)/float64(total))
		}
		lastErr := w.LastError
		if lastErr == "" {
			lastErr = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
			w.URL, state, w.Inflight, w.ShardsOK, w.ShardsFailed, w.ConsecutiveFailures, w.TrialsExecuted, hitRate, lastErr)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("cells distributed %d (local %d), shards dispatched %d (discarded %d), retries %d, local failovers %d, shard size %d trials\n",
		st.Cluster.CellsDistributed, st.Cluster.LocalCells, st.Cluster.ShardsDispatched, st.Cluster.ShardsDiscarded,
		st.Cluster.ShardRetries, st.Cluster.LocalFailovers, st.Cluster.ShardTrials)
	return nil
}

func cmdSmoke(c *client, args []string) error {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	requests := fs.Int("requests", 64, "concurrent identical requests in the coalescing burst")
	distinct := fs.Int("distinct", 8, "additional distinct scenarios")
	graph := fs.String("graph", "grid:6x6", "graph spec of the identical burst")
	p := fs.Float64("p", 0.5, "failure probability of the identical burst")
	trials := fs.Int("trials", 2000, "trial budget per request")
	out := fs.String("out", "", "write the post-run /v1/stats JSON to this file")
	fs.Parse(args)

	if _, err := c.get("/healthz"); err != nil {
		return fmt.Errorf("smoke: server not healthy: %w", err)
	}
	// Snapshot the counters so the verdict below reads this run's deltas —
	// the server need not be fresh.
	var before service.Stats
	if body, err := c.get("/v1/stats"); err != nil {
		return err
	} else if err := json.Unmarshal(body, &before); err != nil {
		return err
	}

	// Phase 1: a concurrent burst of identical requests. The server must
	// answer every one, executing the underlying plan far fewer times
	// than it was asked (singleflight + result cache).
	burst := service.EstimateRequest{Graph: *graph, P: *p, Trials: *trials}
	var wg sync.WaitGroup
	errs := make([]error, *requests)
	served := make([]string, *requests)
	startBurst := time.Now()
	for i := 0; i < *requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			er, _, err := c.estimate(burst)
			errs[i] = err
			served[i] = er.Served
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("smoke: burst request %d: %w", i, err)
		}
	}
	counts := map[string]int{}
	for _, s := range served {
		counts[s]++
	}
	fmt.Printf("burst: %d identical requests in %v, served: %v\n",
		*requests, time.Since(startBurst).Round(time.Millisecond), counts)

	// Phase 2: distinct scenarios exercise compile + plan cache churn,
	// including a repeat pass that must hit the caches.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < *distinct; i++ {
			req := service.EstimateRequest{
				Graph:  fmt.Sprintf("line:%d", 16+4*i),
				P:      0.2 + 0.05*float64(i%4),
				Trials: *trials / 4,
			}
			if _, _, err := c.estimate(req); err != nil {
				return fmt.Errorf("smoke: distinct request %d (pass %d): %w", i, pass, err)
			}
		}
	}

	body, err := c.get("/v1/stats")
	if err != nil {
		return err
	}
	var st service.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	fmt.Printf("stats: executions=%d coalesced=%d cache_hits=%d plan_compiles=%d trials_simulated=%d rejected=%d\n",
		st.Executions, st.Coalesced, st.CacheHits, st.PlanCompiles, st.TrialsSimulated, st.Rejected)
	if *out != "" {
		if err := os.WriteFile(*out, body, 0o644); err != nil {
			return err
		}
		fmt.Printf("stats written to %s\n", *out)
	}

	// The smoke's verdict: the burst must have been amortized. Identical
	// requests may coalesce or hit the cache, but executing the plan once
	// per caller means the serving layer did nothing.
	executions := st.Executions - before.Executions
	if executions >= uint64(*requests) {
		return fmt.Errorf("smoke: %d executions for %d identical requests — no amortization", executions, *requests)
	}
	// This run compiled at most the burst scenario plus the distinct
	// ones; in particular the repeat pass must not have recompiled.
	if compiles := st.PlanCompiles - before.PlanCompiles; compiles > uint64(1+*distinct) {
		return fmt.Errorf("smoke: %d plan compiles for %d distinct scenarios", compiles, 1+*distinct)
	}
	fmt.Println("smoke: OK")
	return nil
}
