package faultcast

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"faultcast/internal/adversary"
	"faultcast/internal/graph"
	"faultcast/internal/kucera"
	"faultcast/internal/protocol"
	"faultcast/internal/protocols/flooding"
	"faultcast/internal/protocols/radiorepeat"
	"faultcast/internal/protocols/simplemalicious"
	"faultcast/internal/protocols/simpleomission"
	"faultcast/internal/protocols/twonode"
	"faultcast/internal/radio"
	"faultcast/internal/sim"
)

// Algorithm selects one of the paper's broadcasting algorithms.
type Algorithm int

const (
	// Auto picks the paper's algorithm for the configured scenario:
	// flooding for omission message passing (Theorem 3.1), the composed
	// algorithm for limited-malicious message passing (Theorem 3.2),
	// Simple-Malicious for malicious message passing, and the repeated-
	// schedule algorithms for radio (Theorem 3.4).
	Auto Algorithm = iota
	// SimpleOmission is Algorithm Simple-Omission (§2.1): node v_i
	// transmits for a window of m steps in phase i; works in both models
	// for any p < 1 under omission failures.
	SimpleOmission
	// SimpleMalicious is Algorithm Simple-Malicious (§2.2.1): phases plus
	// a majority vote over the parent's window.
	SimpleMalicious
	// Flooding is the Θ(D + log n) BFS-tree flood of Theorem 3.1
	// (message passing + omission only).
	Flooding
	// Composed is the Kučera-style CO1/CO2 composition of Theorem 3.2
	// (message passing + limited malicious, p < 1/2).
	Composed
	// RadioRepeat is Omission-Radio/Malicious-Radio of Theorem 3.4: each
	// step of a fault-free schedule repeated m times (radio only).
	RadioRepeat
	// TimingBit is the two-node "hello" protocol (§2.2.2): one bit over
	// K2 under limited malicious failures, any p < 1. The message must be
	// "0" or "1" and the graph K2.
	TimingBit
)

func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case SimpleOmission:
		return "simple-omission"
	case SimpleMalicious:
		return "simple-malicious"
	case Flooding:
		return "flooding"
	case Composed:
		return "composed"
	case RadioRepeat:
		return "radio-repeat"
	case TimingBit:
		return "timing-bit"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm parses the string forms printed by Algorithm.String
// ("auto", "simple-omission", "simple-malicious", "flooding", "composed",
// "radio-repeat", "timing-bit") — the vocabulary of the CLI -algo flag and
// the service's "algorithm" request field.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return Auto, nil
	case "simple-omission":
		return SimpleOmission, nil
	case "simple-malicious":
		return SimpleMalicious, nil
	case "flooding":
		return Flooding, nil
	case "composed":
		return Composed, nil
	case "radio-repeat":
		return RadioRepeat, nil
	case "timing-bit":
		return TimingBit, nil
	default:
		return Auto, fmt.Errorf("faultcast: unknown algorithm %q", s)
	}
}

// ParseModel parses "mp" / "message-passing" or "radio".
func ParseModel(s string) (Model, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "mp", "message-passing":
		return MessagePassing, nil
	case "radio":
		return Radio, nil
	default:
		return MessagePassing, fmt.Errorf("faultcast: unknown model %q", s)
	}
}

// ParseFault parses "omission", "malicious", or "limited" /
// "limited-malicious".
func ParseFault(s string) (Fault, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "omission":
		return Omission, nil
	case "malicious":
		return Malicious, nil
	case "limited", "limited-malicious":
		return LimitedMalicious, nil
	default:
		return Omission, fmt.Errorf("faultcast: unknown fault type %q", s)
	}
}

// ParseAdversary parses "worst", "crash", "flip", or "noise".
func ParseAdversary(s string) (AdversaryKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "worst", "worst-case":
		return WorstCase, nil
	case "crash":
		return CrashAdv, nil
	case "flip":
		return FlipAdv, nil
	case "noise":
		return NoiseAdv, nil
	default:
		return WorstCase, fmt.Errorf("faultcast: unknown adversary %q", s)
	}
}

// AdversaryKind selects the malicious strategy for Run.
type AdversaryKind int

// String returns the ParseAdversary vocabulary form ("worst", "crash",
// "flip", "noise"), so the value round-trips through the CLI flags and
// service request fields.
func (a AdversaryKind) String() string {
	switch a {
	case WorstCase:
		return "worst"
	case CrashAdv:
		return "crash"
	case FlipAdv:
		return "flip"
	case NoiseAdv:
		return "noise"
	default:
		return fmt.Sprintf("AdversaryKind(%d)", int(a))
	}
}

const (
	// WorstCase picks the paper's proof-strategy adversary for the
	// scenario: the equivocator (Theorem 2.3) in the message passing
	// model, the star adversary (Theorem 2.4) in the radio model. Both
	// need to know the two candidate messages; Run uses the configured
	// message and its byte-flipped sibling "0"/"1" when applicable, else
	// falls back to Flip. The star adversary jams out of turn, so Compile
	// rejects it under LimitedMalicious faults.
	WorstCase AdversaryKind = iota
	// CrashAdv silences faulty nodes.
	CrashAdv
	// FlipAdv rewrites faulty payloads to a fixed wrong value.
	FlipAdv
	// NoiseAdv randomizes faulty payloads.
	NoiseAdv
)

// Config describes one broadcast simulation.
type Config struct {
	Graph   *Graph
	Source  int
	Message []byte
	Model   Model
	Fault   Fault
	// P is the per-step transmitter failure probability in [0, 1).
	P float64
	// Algorithm selects the protocol (Auto = the paper's choice for the
	// scenario).
	Algorithm Algorithm
	// WindowC overrides the window constant c of m = ceil(c·log n)
	// (0 = derive from P as the analyses prescribe).
	WindowC float64
	// Alpha is the Theorem 3.2 exponent for Composed (default 1.5).
	Alpha float64
	// Adversary selects the malicious strategy (ignored for omission).
	Adversary AdversaryKind
	// Seed makes the run reproducible.
	Seed uint64
	// Rounds overrides the running time (0 = the algorithm's own horizon).
	Rounds int
	// Trace, if non-nil, receives a per-round execution log (faults,
	// transmissions, deliveries, collisions). Single runs only; ignored
	// by EstimateSuccess.
	Trace io.Writer
	// Core selects the engine that runs this scenario's trials. The
	// default CoreAuto uses the lane-transposed trial-parallel core — 64
	// trials per machine word — for estimation whenever the scenario
	// supports it, falling back to the bitset core otherwise; all cores
	// are proven bit-identical by the differential test matrix, so Core
	// changes only how fast an answer arrives. Single runs (Plan.Run)
	// always use a round engine (bitset, scalar or concurrent), the only
	// ones that produce full per-run statistics.
	Core Core
}

// Core selects the execution engine. Compile resolves it once: a Plan
// runs on exactly one of lanes, bitset, scalar or concurrent.
type Core int

const (
	// CoreAuto picks the fastest supported core: the lane-transposed
	// trial-parallel core when the scenario has a lane lowering, the
	// word-parallel bitset core otherwise. One lowered shape is held on
	// the bitset core (see heldOnRoundCore).
	CoreAuto Core = iota
	// CoreBitset forces the word-parallel bitset round core.
	CoreBitset
	// CoreScalar forces the scalar reference round core (kept so the
	// bitset core stays differentially testable end to end).
	CoreScalar
	// CoreLanes forces the lane-transposed trial-parallel core for
	// estimation; Compile fails if the scenario has no lane lowering.
	CoreLanes
	// CoreConcurrent runs every trial on the goroutine-per-node engine,
	// the model-faithful reference implementation (slower).
	CoreConcurrent
)

// String returns the core's name, the form Plan.EstimationCore reports.
func (c Core) String() string {
	switch c {
	case CoreAuto:
		return "auto"
	case CoreBitset:
		return "bitset"
	case CoreScalar:
		return "scalar"
	case CoreLanes:
		return "lanes"
	case CoreConcurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Core(%d)", int(c))
	}
}

// CanonicalString returns a deterministic serialization of the
// configuration's simulation semantics: every field that can change what a
// trial computes, in a fixed order, with floats rendered by their exact
// IEEE-754 bits and the graph reduced to its structural fingerprint
// (graph.Fingerprint — vertex count plus canonical edge list). Two configs
// produce the same string iff every trial stream they describe is
// bit-identical.
//
// Excluded on purpose: Trace (observation, not semantics) and the engine
// selector Core — every core is proven bit-identical to the default by
// the differential test matrix, so it cannot change a result, only how
// fast it arrives. Seed
// IS included: results are deterministic in (config, seed), so different
// seeds are different computations.
func (cfg Config) CanonicalString() string {
	var b strings.Builder
	b.WriteString("faultcast/v1|graph:")
	if cfg.Graph == nil {
		b.WriteString("nil")
	} else {
		fp := cfg.Graph.Fingerprint()
		b.WriteString(hex.EncodeToString(fp[:]))
	}
	fmt.Fprintf(&b, "|src:%d|msg:%s|model:%d|fault:%d|p:%016x|algo:%d|wc:%016x|alpha:%016x|adv:%d|seed:%d|rounds:%d",
		cfg.Source, hex.EncodeToString(cfg.Message), int(cfg.Model), int(cfg.Fault),
		math.Float64bits(cfg.P), int(cfg.Algorithm), math.Float64bits(cfg.WindowC),
		math.Float64bits(cfg.Alpha), int(cfg.Adversary), cfg.Seed, cfg.Rounds)
	return b.String()
}

// Fingerprint returns a 64-hex-digit SHA-256 key over CanonicalString —
// the cache key of the serving layer: semantically identical requests
// (same topology, scenario, and seed, regardless of graph name, engine
// selection, or tracing) hash equal, so their plans and estimates are
// shareable.
func (cfg Config) Fingerprint() string { return fingerprintOf(cfg.CanonicalString()) }

// fingerprintOf hashes a rendered CanonicalString into its Fingerprint,
// for callers that need the string itself as well.
func fingerprintOf(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}

// Result summarizes a run.
type Result struct {
	// Success is true iff every node ended with exactly the source
	// message.
	Success bool
	// Rounds is the executed horizon.
	Rounds int
	// FirstFailed is the smallest node id with a wrong output (-1 on
	// success).
	FirstFailed int
	// Faults is the total number of (node, step) transmitter failures.
	Faults int
	// Deliveries is the number of delivered messages.
	Deliveries int
	// Collisions is the number of radio collision events.
	Collisions int
}

// Run executes one simulation. It is a thin wrapper over Compile +
// Plan.Run; callers running many trials of the same scenario should
// Compile once and reuse the Plan.
func Run(cfg Config) (Result, error) {
	plan, err := Compile(cfg)
	if err != nil {
		return Result{}, err
	}
	return plan.Run(cfg.Seed)
}

// Estimate is a Monte-Carlo success estimate with a 95% Wilson interval.
type Estimate struct {
	Rate     float64
	Low, Hi  float64
	Trials   int
	Succeeds int
}

// AlmostSafe reports whether the estimate is compatible with the paper's
// almost-safety target 1 − 1/n (i.e. the interval reaches it).
func (e Estimate) AlmostSafe(n int) bool {
	return e.Hi >= 1-1/float64(n)
}

func (e Estimate) String() string {
	return fmt.Sprintf("%.4f [%.4f, %.4f] (%d/%d)", e.Rate, e.Low, e.Hi, e.Succeeds, e.Trials)
}

// EstimateSuccess runs `trials` independent simulations (seeds Seed+i) in
// parallel and estimates the success probability. It is a thin wrapper
// over Compile + Plan.Estimate, so the scenario is compiled once for the
// whole trial stream.
func EstimateSuccess(cfg Config, trials int) (Estimate, error) {
	plan, err := Compile(cfg)
	if err != nil {
		return Estimate{}, err
	}
	return plan.Estimate(trials)
}

// build lowers the public Config to an engine configuration, plus the
// lane-transposed trial-parallel lowering when the scenario has one (nil
// otherwise — callers fall back to the scalar/bitset engine, and laneGate
// says which scenario feature blocked the lowering).
func build(cfg Config) (simCfg *sim.Config, lanes *sim.LaneSpec, laneGate string, err error) {
	if cfg.Graph == nil {
		return nil, nil, "", errors.New("faultcast: Config.Graph is nil")
	}
	if len(cfg.Message) == 0 {
		return nil, nil, "", errors.New("faultcast: empty message")
	}
	if cfg.Source < 0 || cfg.Source >= cfg.Graph.N() {
		return nil, nil, "", fmt.Errorf("faultcast: source %d out of range", cfg.Source)
	}
	if cfg.P < 0 || cfg.P >= 1 {
		return nil, nil, "", fmt.Errorf("faultcast: P=%v outside [0,1)", cfg.P)
	}
	model := sim.MessagePassing
	if cfg.Model == Radio {
		model = sim.Radio
	}
	var fault sim.FaultType
	switch cfg.Fault {
	case Omission:
		fault = sim.Omission
	case Malicious:
		fault = sim.Malicious
	case LimitedMalicious:
		fault = sim.LimitedMalicious
		if isStar(cfg) {
			return nil, nil, "", errors.New("faultcast: the radio worst-case adversary on a bit message is Theorem 2.4's star adversary, which jams out of turn; limited-malicious faults cannot do that (use malicious faults, or the crash, flip or noise adversary)")
		}
	default:
		return nil, nil, "", fmt.Errorf("faultcast: unknown fault %d", int(cfg.Fault))
	}

	algo := cfg.Algorithm
	if algo == Auto {
		algo = pickAlgorithm(cfg)
	}
	newNode, rounds, lp, err := buildProtocol(cfg, algo, model)
	if err != nil {
		return nil, nil, "", err
	}
	if cfg.Rounds > 0 {
		rounds = cfg.Rounds
	}
	simCfg = &sim.Config{
		Graph:     cfg.Graph,
		Model:     model,
		Fault:     fault,
		P:         cfg.P,
		Source:    cfg.Source,
		SourceMsg: cfg.Message,
		NewNode:   newNode,
		Rounds:    rounds,
		Seed:      cfg.Seed,
	}
	if fault == sim.Malicious || fault == sim.LimitedMalicious {
		simCfg.Adversary = buildAdversary(cfg)
	}
	lanes, laneGate = buildLaneSpec(cfg, simCfg, lp)
	return simCfg, lanes, laneGate, nil
}

// laneParts is a protocol's contribution to its lane lowering: the
// transposed kernel constructor (parameterized by the payload symbol
// count), the per-vertex send-target lists (nil for radio broadcast), and
// whether the protocol is content-free (its outputs never depend on
// payload bytes — the timing protocol — so payload-only adversary effects
// are unobservable and the default-message gate does not apply).
type laneParts struct {
	newKernel   func(symbols int) sim.LaneKernel
	targets     [][]int
	contentFree bool
}

// buildLaneSpec assembles the lane-transposed lowering of a built
// scenario, or nil plus the gating reason when it has none. Each
// adversary buildAdversary picks has a lane corruption: crash silences,
// flip and the non-bit worst case rewrite to the default, noise redraws,
// the message-passing worst case is the source-only equivocator
// (LaneEquivocate) and the radio one the Theorem 2.4 star (LaneStar). The
// lane core tracks payloads as k = symbols−1 bit columns per (vertex,
// trial) over a small fixed symbol alphabet — {default, M} for the crash,
// flip, and equivocating adversaries (flipOf rewrites every non-default
// message to the default, and the equivocator toggles a bit message),
// plus a third value for the noise adversary's "1" when its {"0","1"}
// draws fall outside {default, M} and for the star adversary's jam "#".
// The lowering is faithful exactly when that alphabet covers every
// payload any execution can carry, which leaves one gated shape: a
// content protocol broadcasting the default message itself (the encoding
// cannot tell M from an adopted default).
func buildLaneSpec(cfg Config, simCfg *sim.Config, lp *laneParts) (*sim.LaneSpec, string) {
	if lp == nil {
		return nil, "the algorithm has no lane kernel"
	}
	if !lp.contentFree && protocol.IsDefault(cfg.Message) {
		return nil, `message "0" is the default symbol, which the lane payload encoding cannot distinguish from an uninformed node's default`
	}
	corruption := sim.LaneSilence
	symbols := 2
	noiseSym := 0
	if simCfg.Fault != sim.Omission {
		switch cfg.Adversary {
		case CrashAdv:
			corruption = sim.LaneSilence
		case FlipAdv:
			corruption = sim.LaneFlip
		case NoiseAdv:
			if lp.contentFree {
				// Payload rewrites are unobservable to a content-free
				// protocol, and the adversary's draws live on its private
				// stream, so keep-the-targets is an exact model.
				corruption = sim.LaneFlip
			} else {
				corruption = sim.LaneNoise
				if string(cfg.Message) == "1" {
					noiseSym = 1 // the noise alphabet {"0","1"} is {default, M}
				} else {
					symbols = 3 // noise's "1" is a third symbol
					noiseSym = 2
				}
			}
		case WorstCase:
			switch {
			case isStar(cfg):
				corruption = sim.LaneStar
				symbols = 3 // the jam "#" is a third symbol
			case !isBit(cfg.Message):
				corruption = sim.LaneFlip
			case lp.contentFree:
				corruption = sim.LaneFlip // the equivocator swaps bits the receiver never reads
			default:
				corruption = sim.LaneEquivocate
			}
		default: // out-of-range kinds fall back to Flip, as in buildAdversary
			corruption = sim.LaneFlip
		}
	}
	return &sim.LaneSpec{
		Graph:      simCfg.Graph,
		Model:      simCfg.Model,
		Fault:      simCfg.Fault,
		P:          simCfg.P,
		Rounds:     simCfg.Rounds,
		Corruption: corruption,
		Symbols:    symbols,
		NoiseSym:   noiseSym,
		Source:     cfg.Source,
		Targets:    lp.targets,
		NewKernel:  lp.newKernel,
	}, ""
}

func pickAlgorithm(cfg Config) Algorithm {
	if cfg.Model == Radio {
		return RadioRepeat
	}
	switch cfg.Fault {
	case Omission:
		return Flooding
	case LimitedMalicious:
		if cfg.Graph.N() == 2 && isBit(cfg.Message) {
			return TimingBit
		}
		return Composed
	default:
		return SimpleMalicious
	}
}

// isStar reports whether a malicious scenario's adversary is the Theorem
// 2.4 star adversary: the worst case on a bit message in the radio model.
func isStar(cfg Config) bool {
	return cfg.Model == Radio && cfg.Adversary == WorstCase && isBit(cfg.Message)
}

// heldOnRoundCore reports whether Core=auto keeps a scenario that has a
// lane lowering on the round core anyway. One shape is held: the star
// adversary on a star graph whose hub is the source. That is not Theorem
// 2.4's setting, which puts the source at a leaf (E5 and the other paper
// shapes run on lanes), and Core=lanes runs it bit-identically on the
// lane core. It is held so that perfbench's curve-sweep, whose star:4
// cells have this shape, keeps a round-core workload, which its core-mix
// check requires; the hold goes when that check does (ROADMAP item 5).
func heldOnRoundCore(cfg Config) bool {
	g := cfg.Graph
	return cfg.Fault == Malicious && isStar(cfg) && g.Degree(cfg.Source) == g.N()-1 && g.M() == g.N()-1
}

func isBit(msg []byte) bool {
	return len(msg) == 1 && (msg[0] == '0' || msg[0] == '1')
}

func buildProtocol(cfg Config, algo Algorithm, model sim.Model) (func(int) sim.Node, int, *laneParts, error) {
	n := cfg.Graph.N()
	switch algo {
	case SimpleOmission:
		c := cfg.WindowC
		if c == 0 {
			c = protocol.WindowCOmission(cfg.P)
		}
		p := simpleomission.New(cfg.Graph, cfg.Source, model, c)
		return p.NewNode, p.Rounds(), &laneParts{newKernel: p.NewLaneKernel, targets: p.LaneTargets()}, nil

	case SimpleMalicious:
		c := cfg.WindowC
		if c == 0 {
			if model == sim.Radio {
				c = protocol.WindowCRadioMalicious(cfg.P, cfg.Graph.MaxDegree())
			} else {
				c = protocol.WindowCMalicious(cfg.P)
			}
		}
		p := simplemalicious.New(cfg.Graph, cfg.Source, model, c)
		return p.NewNode, p.Rounds(), &laneParts{newKernel: p.NewLaneKernel, targets: p.LaneTargets()}, nil

	case Flooding:
		if model != sim.MessagePassing {
			return nil, 0, nil, errors.New("faultcast: flooding requires the message passing model")
		}
		a := cfg.WindowC
		if a == 0 {
			a = 6
		}
		p := flooding.New(cfg.Graph, cfg.Source)
		return p.NewNode, p.Rounds(a), &laneParts{newKernel: p.NewLaneKernel, targets: p.LaneTargets()}, nil

	case Composed:
		if model != sim.MessagePassing {
			return nil, 0, nil, errors.New("faultcast: the composed algorithm requires the message passing model")
		}
		alpha := cfg.Alpha
		if alpha == 0 {
			alpha = 1.5
		}
		plan, err := kucera.PlanForGraph(cfg.Graph, cfg.Source, cfg.P, alpha, 1, kucera.Options{})
		if err != nil {
			return nil, 0, nil, err
		}
		p, err := kucera.New(cfg.Graph, cfg.Source, plan)
		if err != nil {
			return nil, 0, nil, err
		}
		return p.NewNode, p.Rounds(), &laneParts{newKernel: p.NewLaneKernel, targets: p.LaneTargets()}, nil

	case RadioRepeat:
		if model != sim.Radio {
			return nil, 0, nil, errors.New("faultcast: radio-repeat requires the radio model")
		}
		variant := radiorepeat.OmissionVariant
		c := cfg.WindowC
		if cfg.Fault == Omission {
			if c == 0 {
				c = protocol.WindowCOmission(cfg.P)
			}
		} else {
			variant = radiorepeat.MaliciousVariant
			if c == 0 {
				c = protocol.WindowCRadioMalicious(cfg.P, cfg.Graph.MaxDegree())
			}
		}
		sched := radio.Greedy(cfg.Graph, cfg.Source)
		p, err := radiorepeat.New(cfg.Graph, cfg.Source, sched, variant, c)
		if err != nil {
			return nil, 0, nil, err
		}
		return p.NewNode, p.Rounds(), &laneParts{newKernel: p.NewLaneKernel}, nil

	case TimingBit:
		if n != 2 {
			return nil, 0, nil, errors.New("faultcast: the timing protocol runs on K2 only")
		}
		if !isBit(cfg.Message) {
			return nil, 0, nil, errors.New("faultcast: the timing protocol broadcasts a single bit (\"0\" or \"1\")")
		}
		m := 64
		if cfg.WindowC > 0 {
			m = int(cfg.WindowC)
		}
		p := twonode.New(m)
		lp := &laneParts{
			newKernel:   p.NewLaneKernel(cfg.Source, cfg.Message[0] == '1'),
			contentFree: true,
		}
		return p.NewNode, p.Rounds(), lp, nil

	default:
		return nil, 0, nil, fmt.Errorf("faultcast: unknown algorithm %d", int(algo))
	}
}

func buildAdversary(cfg Config) sim.Adversary {
	switch cfg.Adversary {
	case CrashAdv:
		return adversary.Crash{}
	case FlipAdv:
		return adversary.Flip{Wrong: flipOf(cfg.Message)}
	case NoiseAdv:
		return adversary.RandomNoise{}
	case WorstCase:
		m0, m1 := []byte("0"), []byte("1")
		switch {
		case isStar(cfg):
			return adversary.Star{M0: m0, M1: m1}
		case isBit(cfg.Message):
			return adversary.Equivocator{M0: m0, M1: m1, SourceOnly: true}
		}
		return adversary.Flip{Wrong: flipOf(cfg.Message)}
	default:
		return adversary.Flip{Wrong: flipOf(cfg.Message)}
	}
}

// flipOf returns a payload guaranteed to differ from msg ("0" unless msg
// is "0").
func flipOf(msg []byte) []byte {
	if len(msg) == 1 && msg[0] == '0' {
		return []byte("1")
	}
	return []byte("0")
}

// BFSTree re-exports breadth-first spanning tree construction for callers
// building custom schedules or visualizations.
func BFSTree(g *Graph, source int) *graph.Tree { return graph.BFSTree(g, source) }
