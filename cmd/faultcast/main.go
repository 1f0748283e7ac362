// Command faultcast runs one broadcast simulation (or a Monte-Carlo
// estimate) from the command line. Two subcommands open the parameter
// space: `faultcast sweep` compiles a declarative grid and streams every
// cell's estimate from one shared worker pool, and `faultcast threshold`
// brackets a scenario's empirical feasibility threshold by adaptive
// bisection.
//
// Examples:
//
//	faultcast -graph grid:8x8 -fault omission -p 0.5
//	faultcast -graph line:32 -model radio -fault malicious -p 0.05 -trials 500
//	faultcast -graph k2 -fault limited -p 0.7 -message 0 -trials 1000
//	faultcast -graph layered:4 -feasibility
//	faultcast -graph tree:31:2 -dot > tree.dot
//	faultcast sweep -graphs line:32,grid:6x6 -ps 0.1:0.9:0.1 -trials 500
//	faultcast sweep -graphs star:8 -models radio -faults malicious -ps 0.05,0.1,0.2 -json
//	faultcast threshold -graph star:8 -source 1 -model radio -fault malicious -c 60
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"faultcast"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sweep":
			runSweepCmd(os.Args[2:])
			return
		case "threshold":
			runThresholdCmd(os.Args[2:])
			return
		}
	}
	runOnce()
}

// parseFloats parses a comma-separated float list, expanding lo:hi:step
// range entries inclusively (e.g. "0.1:0.5:0.2" → 0.1, 0.3, 0.5).
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.Contains(part, ":") {
			bounds := strings.Split(part, ":")
			if len(bounds) != 3 {
				return nil, fmt.Errorf("range %q: want lo:hi:step", part)
			}
			lo, err1 := strconv.ParseFloat(bounds[0], 64)
			hi, err2 := strconv.ParseFloat(bounds[1], 64)
			step, err3 := strconv.ParseFloat(bounds[2], 64)
			if err1 != nil || err2 != nil || err3 != nil || step <= 0 || hi < lo {
				return nil, fmt.Errorf("bad range %q", part)
			}
			for v := lo; v <= hi+step/1e6; v += step {
				out = append(out, v)
			}
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runSweepCmd is the `faultcast sweep` mode: declare axes, compile once,
// stream every cell from the shared scheduler. The default output is an
// aligned table in grid order once the sweep finishes; -json streams
// NDJSON lines in completion order instead (the service's wire format,
// useful for piping while long sweeps run).
func runSweepCmd(args []string) {
	fs := flag.NewFlagSet("faultcast sweep", flag.ExitOnError)
	var (
		graphs     = fs.String("graphs", "", "comma-separated graph specs (required), e.g. line:32,grid:6x6")
		source     = fs.Int("source", 0, "broadcast source node (applies to every graph)")
		ps         = fs.String("ps", "", "comma-separated failure probabilities; lo:hi:step ranges allowed (required)")
		models     = fs.String("models", "", "comma-separated models (default mp)")
		faults     = fs.String("faults", "", "comma-separated fault types (default omission)")
		advs       = fs.String("adversaries", "", "comma-separated adversaries (default worst)")
		algos      = fs.String("algorithms", "", "comma-separated algorithms (default auto)")
		cs         = fs.String("cs", "", "comma-separated window constants (default 0 = derive from p)")
		messages   = fs.String("messages", "", "comma-separated source messages (default 1)")
		trials     = fs.Int("trials", 1000, "trial budget per cell")
		halfWidth  = fs.Float64("halfwidth", 0, "per-cell precision stop: 95% interval half-width (0 = off)")
		almostSafe = fs.Bool("almostsafe", true, "stop cells early once decided against the 1-1/n bound")
		seed       = fs.Uint64("seed", 1, "sweep master seed (cell seeds derive from it)")
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		asJSON     = fs.Bool("json", false, "stream NDJSON cell results in completion order")
	)
	fs.Parse(args)
	if *graphs == "" || *ps == "" {
		fmt.Fprintln(os.Stderr, "faultcast sweep: -graphs and -ps are required")
		fs.Usage()
		os.Exit(2)
	}
	psList, err := parseFloats(*ps)
	if err != nil {
		fatal(fmt.Errorf("-ps: %w", err))
	}
	csList, err := parseFloats(*cs)
	if err != nil {
		fatal(fmt.Errorf("-cs: %w", err))
	}
	spec := faultcast.SweepSpec{
		Ps:       psList,
		WindowCs: csList,
		Messages: splitList(*messages),
		Seed:     *seed,
		Budget: faultcast.CellBudget{
			Trials:     *trials,
			HalfWidth:  *halfWidth,
			AlmostSafe: *almostSafe,
		},
	}
	for _, gs := range splitList(*graphs) {
		spec.Graphs = append(spec.Graphs, faultcast.SweepGraph{Spec: gs, Source: *source})
	}
	for _, s := range splitList(*models) {
		m, err := faultcast.ParseModel(s)
		if err != nil {
			fatal(err)
		}
		spec.Models = append(spec.Models, m)
	}
	for _, s := range splitList(*faults) {
		f, err := faultcast.ParseFault(s)
		if err != nil {
			fatal(err)
		}
		spec.Faults = append(spec.Faults, f)
	}
	for _, s := range splitList(*advs) {
		a, err := faultcast.ParseAdversary(s)
		if err != nil {
			fatal(err)
		}
		spec.Adversaries = append(spec.Adversaries, a)
	}
	for _, s := range splitList(*algos) {
		a, err := faultcast.ParseAlgorithm(s)
		if err != nil {
			fatal(err)
		}
		spec.Algorithms = append(spec.Algorithms, a)
	}
	sp, err := faultcast.CompileSweep(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells, %d distinct plans, %d trials/cell budget\n",
		len(sp.Cells()), sp.PlanCount(), *trials)

	var opts []faultcast.SweepOption
	if *workers > 0 {
		opts = append(opts, faultcast.WithSweepWorkers(*workers))
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		err := sp.Run(context.Background(), func(r faultcast.CellResult) {
			_ = enc.Encode(map[string]any{
				"index": r.Index, "key": r.Cell.Key,
				"graph": r.Cell.Graph.Spec, "source": r.Cell.Config.Source,
				"model": r.Cell.Config.Model.String(), "fault": r.Cell.Config.Fault.String(),
				"adversary": r.Cell.Config.Adversary.String(), "algorithm": r.Cell.Config.Algorithm.String(),
				"p": r.Cell.Config.P, "window_c": r.Cell.Config.WindowC,
				"rate": r.Estimate.Rate, "low": r.Estimate.Low, "high": r.Estimate.Hi,
				"trials": r.Estimate.Trials, "successes": r.Estimate.Succeeds,
				"almost_safe": r.Estimate.AlmostSafe(r.Cell.Config.Graph.N()),
				"rounds":      r.Cell.Rounds(), "n": r.Cell.Config.Graph.N(),
			})
		}, opts...)
		if err != nil {
			fatal(err)
		}
		return
	}
	results, err := sp.Collect(context.Background(), opts...)
	if err != nil {
		fatal(err)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
	fmt.Printf("%-16s %-6s %-10s %-8s %-8s %-22s %-7s %s\n",
		"graph", "model", "fault", "p", "c", "success (95% CI)", "trials", "almost-safe")
	for _, r := range results {
		cfg := r.Cell.Config
		name := r.Cell.Graph.Spec
		if name == "" {
			name = cfg.Graph.Name()
		}
		fmt.Printf("%-16s %-6s %-10s %-8.4f %-8.4g %-22s %-7d %v\n",
			name, shortModel(cfg.Model), cfg.Fault, cfg.P, cfg.WindowC,
			fmt.Sprintf("%.4f [%.3f,%.3f]", r.Estimate.Rate, r.Estimate.Low, r.Estimate.Hi),
			r.Estimate.Trials, r.Estimate.AlmostSafe(cfg.Graph.N()))
	}
}

func shortModel(m faultcast.Model) string {
	if m == faultcast.Radio {
		return "radio"
	}
	return "mp"
}

// runThresholdCmd is the `faultcast threshold` mode: bracket the
// empirical feasibility threshold of a scenario and compare it to the
// paper's closed form.
func runThresholdCmd(args []string) {
	fs := flag.NewFlagSet("faultcast threshold", flag.ExitOnError)
	var (
		graphSpec  = fs.String("graph", "star:8", "graph spec")
		source     = fs.Int("source", 0, "broadcast source node")
		model      = fs.String("model", "mp", "communication model: mp | radio")
		fault      = fs.String("fault", "malicious", "fault type: omission | malicious | limited")
		algo       = fs.String("algo", "auto", "algorithm (auto = the paper's choice)")
		adv        = fs.String("adversary", "worst", "malicious strategy")
		message    = fs.String("message", "1", "source message")
		windowC    = fs.Float64("c", 0, "window constant override (0 = derive per probe; derived windows explode near the threshold — set c explicitly for tight searches)")
		trials     = fs.Int("trials", 800, "trial budget per probe")
		resolution = fs.Float64("resolution", 1.0/32, "bracket width at which the search stops")
		seed       = fs.Uint64("seed", 1, "search master seed")
	)
	fs.Parse(args)
	g, err := faultcast.ParseGraph(*graphSpec, *seed)
	if err != nil {
		fatal(err)
	}
	cfg := faultcast.Config{
		Graph: g, Source: *source, Message: []byte(*message),
		WindowC: *windowC, Seed: *seed,
	}
	if cfg.Model, err = faultcast.ParseModel(*model); err != nil {
		fatal(err)
	}
	if cfg.Fault, err = faultcast.ParseFault(*fault); err != nil {
		fatal(err)
	}
	if cfg.Algorithm, err = faultcast.ParseAlgorithm(*algo); err != nil {
		fatal(err)
	}
	if cfg.Adversary, err = faultcast.ParseAdversary(*adv); err != nil {
		fatal(err)
	}
	res, err := faultcast.ThresholdSearch(cfg,
		faultcast.WithThresholdTrials(*trials),
		faultcast.WithThresholdResolution(*resolution))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scenario: %s + %s on %s (n=%d, Δ=%d)\n",
		cfg.Model, cfg.Fault, g, g.N(), g.MaxDegree())
	fmt.Printf("%-10s %-22s %-10s %s\n", "probe p", "success (95% CI)", "trials", "verdict")
	for _, p := range res.Probes {
		fmt.Printf("%-10.6f %-22s %-10d %v\n", p.P,
			fmt.Sprintf("%.4f [%.3f,%.3f]", p.Estimate.Rate, p.Estimate.Low, p.Estimate.Hi),
			p.Estimate.Trials, p.Verdict)
	}
	fmt.Printf("\nempirical bracket:     p* ∈ [%.6f, %.6f]\n", res.Low, res.High)
	fmt.Printf("theoretical threshold: %.6f (%s)\n", res.Theory, thresholdLaw(cfg))
	if res.Contains(res.Theory) {
		fmt.Println("the bracket contains the theoretical threshold ✔")
	} else {
		fmt.Println("WARNING: the bracket misses the theoretical threshold (window too small, budget too tight, or finite-size effects)")
		os.Exit(1)
	}
}

func thresholdLaw(cfg faultcast.Config) string {
	switch {
	case cfg.Fault == faultcast.Omission:
		return "any p < 1, Thm 2.1"
	case cfg.Fault == faultcast.Malicious && cfg.Model == faultcast.Radio:
		return fmt.Sprintf("fixed point of p = (1-p)^%d, Thm 2.4", cfg.Graph.MaxDegree()+1)
	case cfg.Fault == faultcast.Malicious:
		return "1/2, Thms 2.2/2.3"
	default:
		return "limited malicious: 1 via timing, Thm 3.2 covers p < 1/2"
	}
}

func runOnce() {
	var (
		graphSpec = flag.String("graph", "line:16", "graph spec (line:N, grid:RxC, star:N, tree:N:K, layered:M, gnp:N:P, ...)")
		source    = flag.Int("source", 0, "broadcast source node")
		model     = flag.String("model", "mp", "communication model: mp | radio")
		fault     = flag.String("fault", "omission", "fault type: omission | malicious | limited")
		p         = flag.Float64("p", 0.3, "per-step transmitter failure probability")
		algo      = flag.String("algo", "auto", "algorithm: auto | simple-omission | simple-malicious | flooding | composed | radio-repeat | timing-bit")
		adv       = flag.String("adversary", "worst", "malicious strategy: worst | crash | flip | noise")
		message   = flag.String("message", "1", "source message")
		seed      = flag.Uint64("seed", 1, "random seed")
		trials    = flag.Int("trials", 1, "number of Monte-Carlo trials (1 = single traced run)")
		windowC   = flag.Float64("c", 0, "window constant override (0 = derive from p)")
		feas      = flag.Bool("feasibility", false, "print the feasibility verdict for this scenario and exit")
		dot       = flag.Bool("dot", false, "print the graph in DOT format and exit")
		traceRun  = flag.Bool("trace", false, "print a per-round execution log (single runs only)")
		full      = flag.Bool("full", false, "run all trials (disable early stopping at the almost-safe target)")
	)
	flag.Parse()

	g, err := faultcast.ParseGraph(*graphSpec, *seed)
	if err != nil {
		fatal(err)
	}
	if *dot {
		if err := g.WriteDOT(os.Stdout, *source); err != nil {
			fatal(err)
		}
		return
	}

	cfg := faultcast.Config{
		Graph:   g,
		Source:  *source,
		Message: []byte(*message),
		P:       *p,
		WindowC: *windowC,
		Seed:    *seed,
	}
	if cfg.Model, err = faultcast.ParseModel(*model); err != nil {
		fatal(err)
	}
	if cfg.Fault, err = faultcast.ParseFault(*fault); err != nil {
		fatal(err)
	}
	if cfg.Algorithm, err = faultcast.ParseAlgorithm(*algo); err != nil {
		fatal(err)
	}
	if cfg.Adversary, err = faultcast.ParseAdversary(*adv); err != nil {
		fatal(err)
	}

	delta := g.MaxDegree()
	if *feas {
		thr := faultcast.Threshold(cfg.Model, cfg.Fault, delta)
		fmt.Printf("scenario: %s + %s on %s (n=%d, Δ=%d)\n",
			cfg.Model, cfg.Fault, g, g.N(), delta)
		fmt.Printf("threshold: p < %.6f\n", thr)
		fmt.Printf("p = %.4f: feasible = %v\n", *p, faultcast.Feasible(cfg.Model, cfg.Fault, *p, delta))
		return
	}

	fmt.Printf("graph %s, source %d, model %s, fault %s, p=%.3f, algorithm %s\n",
		g, *source, cfg.Model, cfg.Fault, *p, cfg.Algorithm)
	if !faultcast.Feasible(cfg.Model, cfg.Fault, *p, delta) {
		fmt.Printf("warning: p=%.3f is at or above the feasibility threshold %.4f — expect failures\n",
			*p, faultcast.Threshold(cfg.Model, cfg.Fault, delta))
	}

	if *trials <= 1 && *traceRun {
		cfg.Trace = os.Stdout
	}
	// Compile once: protocol, composition plan, radio schedule, BFS tree,
	// adversary, and horizon are shared by every trial below.
	plan, err := faultcast.Compile(cfg)
	if err != nil {
		fatal(err)
	}
	if *trials <= 1 {
		res, err := plan.Run(cfg.Seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("success=%v rounds=%d faults=%d deliveries=%d collisions=%d\n",
			res.Success, res.Rounds, res.Faults, res.Deliveries, res.Collisions)
		if !res.Success {
			fmt.Printf("first failed node: %d\n", res.FirstFailed)
			os.Exit(1)
		}
		return
	}

	var opts []faultcast.EstimateOption
	if !*full {
		opts = append(opts, faultcast.WithAlmostSafeTarget())
	}
	est, err := plan.Estimate(*trials, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("success rate: %v\n", est)
	if est.Trials < *trials {
		fmt.Printf("stopped early after %d/%d trials (interval decided against the almost-safe bound; -full disables)\n",
			est.Trials, *trials)
	}
	fmt.Printf("almost-safe (>= 1-1/n = %.4f): %v\n",
		1-1/float64(g.N()), est.AlmostSafe(g.N()))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultcast:", err)
	os.Exit(2)
}
