package sim

import (
	"errors"
	"fmt"

	"faultcast/internal/graph"
	"faultcast/internal/rng"
	"faultcast/internal/stat"
)

// This file implements the trial-parallel ("lane-transposed") execution
// core. The bitset core in engine.go is word-parallel across vertices
// within one trial; this core transposes the layout so that bit lane L of
// every word is Monte-Carlo trial baseSeed+L of the same compiled
// scenario, and each word operation advances all 64 trials at once.
//
// The trade that makes the transposition possible: the engine stops
// simulating payload bytes and histories, and tracks payloads as k bit
// columns per (vertex, lane) — a lane-sliced encoding of a small, fixed
// symbol alphabet. Symbol 0 is the protocol default ("0"), encoded as all
// columns clear; symbol 1 is the source message M (column 0 set); symbol 2
// is the third payload value some adversaries inject (column 1 set). A
// two-symbol scenario — every payload is M or the default — needs one
// column (k = 1, the original layout); the noise adversary's {"0","1"}
// draws alongside a non-bit message, and the star adversary's jam, need
// two (k = 2). The public layer computes the alphabet and only routes a
// plan here when the encoding is faithful (see run.go buildLaneSpec);
// everything needing per-round
// histories, stats, or arbitrary payloads stays on the bitset round
// engine, which is differentially tested against the scalar reference.
//
// Bit-identity contract: lane L of Run(baseSeed, count) equals the scalar
// engine's Result.Success for seed baseSeed+L. It holds because
//   - the per-lane fault stream is seeded exactly like the scalar trial's
//     (rng.New(seed).Uint64() is the fault Split of the trial master) and
//     rng.Lanes draws per lane in the scalar order (n draws per round).
//     Only the live words are computed — the fault words the round's
//     corruption reads (see markLive) — since no other fault bit is ever
//     read. Unread rounds are deferred, and a block's trailing ones are
//     never drawn: a round with no live word is passed over with
//     rng.Lanes.Skip before the next sampled round (the slowing
//     equivocator replays its per-round source reads there instead), so
//     every value read comes from the scalar trial's stream position;
//   - adversaries that draw (RandomNoise's per-transmission alphabet
//     draws, the equivocator's and the star's slowing draws) are
//     reproduced on a second per-lane bank seeded like the scalar
//     trial's adversary Split, with per-lane draw order matching the
//     scalar Corrupt order (faulty ids ascending, intents in emission
//     order); adversaries that never draw
//     skip the bank entirely, which is unobservable because the adversary
//     stream is private to the adversary;
//   - delivery reproduces the scalar rules exactly (first-sender payload
//     for message passing, the seen-once/seen-twice collision rule for
//     radio).
// The differential matrix in lanes_test.go and the public equivalence
// tests pin all of this per trial.

// LaneWidth is the number of trials a lane runner advances per word
// operation: one per bit lane of a uint64.
const LaneWidth = 64

// LaneCorruption selects how the lane engine models what this scenario's
// fault semantics do to a faulty vertex's transmissions — the lane
// counterpart of (FaultType, Adversary) after the public layer has lowered
// the adversary to a symbol-alphabet form.
type LaneCorruption int

const (
	// LaneSilence drops the faulty vertex's transmissions (omission
	// failures, and malicious runs under a crashing adversary).
	LaneSilence LaneCorruption = iota
	// LaneFlip keeps the transmissions but rewrites their payloads to the
	// default symbol (adversary.Flip — flipOf rewrites every non-default
	// message to "0", and content-free protocols ignore payloads entirely).
	LaneFlip
	// LaneNoise keeps the transmissions and targets but redraws each faulty
	// transmission's payload uniformly from {"0","1"}
	// (adversary.RandomNoise with the default alphabet): per faulty
	// transmission one Intn(2) draw on the lane's adversary stream, "1"
	// mapping to the symbol LaneSpec.NoiseSym. With directed targets the
	// scalar adversary draws once per (sender, target) intent; with
	// broadcasts once per transmitting faulty vertex — the delivery loops
	// fuse the draws in exactly that order.
	LaneNoise
	// LaneEquivocate is adversary.Equivocator{M0:"0", M1:"1", SourceOnly}
	// on a bit message: whenever the source is faulty the payloads of its
	// intended transmissions toggle between "0" and "1" (one column flip),
	// except that for P > 1/2 the proof's slowing reduction first draws
	// Float64() < (P-1/2)/P on the lane's adversary stream — once per round
	// in which the source is faulty, transmitting or not — and skips the
	// swap on success. Two-symbol scenarios only (the message must be "1").
	LaneEquivocate
	// LaneStar is adversary.Star{M0:"0", M1:"1"}, the Theorem 2.4
	// impossibility adversary, on a bit message in the radio model. For
	// P > p*(Δ) (stat.RadioThreshold of the graph's maximum degree) the
	// slowing reduction first keeps each faulty vertex effectively faulty
	// with probability p*/P: one Float64() < p*/P draw on the lane's
	// adversary stream per faulty vertex, ascending, in every round (the
	// scalar Corrupt order). Then, in an S-step — the source intends to
	// transmit and no other vertex does — an effectively faulty source
	// toggles its payload between "0" and "1", and otherwise every
	// effectively faulty vertex jams: it broadcasts "#" out of turn.
	// Outside S-steps faulty vertices behave fault-free. The jam is a third
	// symbol (Symbols must be 3): folded into the default it would read as
	// "0" where the scalar protocol sees a distinct value — an adopter that
	// skips the default takes "#" and is blocked, and a strict-plurality
	// vote counts it apart from "0". Full-malicious only, since jamming
	// transmits out of turn.
	LaneStar
)

// LaneKernel is a protocol compiled to the transposed layout. The runner
// drives it once per round: Transmit fills the per-vertex intent word and
// the k payload symbol columns (all pre-zeroed by the runner; leaving a
// transmitting vertex's columns clear transmits the default symbol), the
// runner applies faults and the model's delivery rule, and Absorb consumes
// the per-vertex heard word plus the k received-symbol columns (sym[c][v]
// is set only where heard[v] is). Verdict returns the lanes whose trial
// succeeded (every vertex would output exactly M).
//
// Kernels are stateful per trial block and reset by Reset; they are not
// safe for concurrent use (one kernel per runner, one runner per worker).
type LaneKernel interface {
	Reset()
	Transmit(round int, intent []uint64, pay [][]uint64)
	Absorb(round int, heard []uint64, sym [][]uint64)
	Verdict() uint64
}

// LaneSpec describes a scenario compiled for the lane engine. It mirrors
// the corresponding Config exactly except that the protocol and adversary
// are already lowered: NewKernel builds the transposed protocol for the
// scenario's symbol count, and Corruption is the adversary's lane form.
type LaneSpec struct {
	Graph *graph.Graph
	Model Model
	Fault FaultType
	// P is the per-step transmitter failure probability in [0, 1).
	P float64
	// Rounds is the horizon, after any Config.Rounds override.
	Rounds int
	// Corruption is the lowered fault semantics (ignored for NoFaults and
	// Omission, which always silence).
	Corruption LaneCorruption
	// Symbols is the payload alphabet size: 0 or 2 for the two-symbol
	// universe {default, M} (one payload column), 3 when a third symbol is
	// in play (two columns; LaneNoise and LaneStar inject one).
	Symbols int
	// NoiseSym is the symbol index ("1" of the noise alphabet) a LaneNoise
	// draw of 1 produces: 1 when the source message itself is "1", else 2.
	NoiseSym int
	// Source is the source vertex (used by LaneEquivocate and LaneStar,
	// whose swapping is keyed to the source's fault bit).
	Source int
	// Targets, when non-nil, restricts vertex v's transmissions to the
	// listed neighbors (message passing only; the tree-directed sends of
	// the paper's protocols). nil means every transmission is a broadcast
	// to all neighbors — and counts as ONE intent for LaneNoise draws, so a
	// scalar twin must emit a single Broadcast transmission, not one per
	// neighbor.
	Targets [][]int
	// NewKernel builds the transposed protocol instance for the given
	// effective symbol count (2 or 3; kernels track symbols-1 columns).
	NewKernel func(symbols int) LaneKernel
}

// symbols returns the effective alphabet size (Symbols defaulted to 2).
func (s *LaneSpec) symbols() int {
	if s.Symbols == 0 {
		return 2
	}
	return s.Symbols
}

// Validate reports specification errors before a runner is built.
func (s *LaneSpec) Validate() error {
	switch {
	case s.Graph == nil:
		return errors.New("sim: LaneSpec.Graph is nil")
	case s.Graph.N() == 0:
		return errors.New("sim: empty graph")
	case s.NewKernel == nil:
		return errors.New("sim: LaneSpec.NewKernel is nil")
	case s.Rounds < 0:
		return fmt.Errorf("sim: negative rounds %d", s.Rounds)
	case s.Model != MessagePassing && s.Model != Radio:
		return fmt.Errorf("sim: unknown model %d", int(s.Model))
	}
	switch s.Fault {
	case NoFaults:
		// p ignored
	case Omission, Malicious, LimitedMalicious:
		if s.P < 0 || s.P >= 1 {
			return fmt.Errorf("sim: failure probability %v outside [0,1)", s.P)
		}
	default:
		return fmt.Errorf("sim: unknown fault type %d", int(s.Fault))
	}
	if s.Symbols != 0 && s.Symbols != 2 && s.Symbols != 3 {
		return fmt.Errorf("sim: %d payload symbols unsupported (want 2 or 3)", s.Symbols)
	}
	if s.Model == Radio && s.Targets != nil {
		return errors.New("sim: radio transmissions are broadcasts; LaneSpec.Targets must be nil")
	}
	switch s.Corruption {
	case LaneNoise:
		if s.Fault != Malicious && s.Fault != LimitedMalicious {
			return errors.New("sim: LaneNoise requires a malicious fault type")
		}
		switch {
		case s.NoiseSym == 1 && s.symbols() == 2:
		case s.NoiseSym == 2 && s.symbols() == 3:
		default:
			return fmt.Errorf("sim: LaneNoise symbol %d inconsistent with %d-symbol alphabet", s.NoiseSym, s.symbols())
		}
	case LaneEquivocate:
		if s.Fault != Malicious && s.Fault != LimitedMalicious {
			return errors.New("sim: LaneEquivocate requires a malicious fault type")
		}
		if s.Source < 0 || s.Source >= s.Graph.N() {
			return fmt.Errorf("sim: LaneEquivocate source %d out of range", s.Source)
		}
		if s.symbols() != 2 {
			return errors.New("sim: LaneEquivocate is a two-symbol corruption (bit messages)")
		}
	case LaneStar:
		switch {
		case s.Fault != Malicious:
			return errors.New("sim: LaneStar jams out of turn, which only full-malicious faults may do")
		case s.Model != Radio:
			return errors.New("sim: LaneStar is a radio-model corruption")
		case s.Source < 0 || s.Source >= s.Graph.N():
			return fmt.Errorf("sim: LaneStar source %d out of range", s.Source)
		case s.symbols() != 3:
			return errors.New("sim: LaneStar's jam is a third symbol (Symbols must be 3)")
		}
	}
	return nil
}

// LaneRunner executes blocks of up to 64 trials of one LaneSpec, reusing
// all state across blocks (the lane analogue of Runner). Not safe for
// concurrent use: one caller at a time.
type LaneRunner struct {
	spec   *LaneSpec
	kernel LaneKernel
	nbrs   [][]int // neighbor lists, used for broadcasts and radio
	k      int     // payload columns: symbols-1
	noise  bool    // LaneNoise active (fault type draws corruption)

	seeds [rng.LaneCount]uint64
	rnd   rng.Lanes
	live  []uint64 // this round's fault words the corruption reads (markLive)

	// Adversary draw bank, seeded per block only when the corruption draws
	// (LaneNoise always; LaneEquivocate's slowing for P > 1/2, LaneStar's
	// for P > p*).
	needAdv  bool
	advSeeds [rng.LaneCount]uint64
	adv      rng.LaneSources
	// starKeep is LaneStar's slowing probability p*/P, or 0 when P <= p*
	// and the star adversary keeps every faulty vertex.
	starKeep float64
	// equivSkip is LaneEquivocate's slowing probability (P-1/2)/P of
	// skipping the swap, or 0 when P <= 1/2 and every faulty source swaps.
	equivSkip float64

	// Per-vertex lane words, reused across rounds and blocks.
	intent []uint64   // kernel's intended transmitters
	pay    [][]uint64 // k payload symbol columns, meaningful where transmitting
	act    []uint64   // actual transmitters after fault semantics
	fault  []uint64   // this round's faulty vertices
	heard  []uint64   // lanes where the vertex receives this round
	sym    [][]uint64 // ... and the received payload's k symbol columns
	once   []uint64   // radio: covered by >= 1 transmitter
	twice  []uint64   // radio: covered by >= 2 transmitters
	seen   [][]uint64 // radio: OR of transmitting neighbors' payload columns
	pc     []uint64   // per-sender masked payload columns (delivery scratch)
}

// NewLaneRunner validates the spec and builds a reusable runner.
func NewLaneRunner(spec *LaneSpec) (*LaneRunner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.Graph.N()
	k := spec.symbols() - 1
	maliciousFault := spec.Fault == Malicious || spec.Fault == LimitedMalicious
	r := &LaneRunner{
		spec:   spec,
		kernel: spec.NewKernel(spec.symbols()),
		k:      k,
		noise:  maliciousFault && spec.Corruption == LaneNoise,
		intent: make([]uint64, n),
		act:    make([]uint64, n),
		fault:  make([]uint64, n),
		heard:  make([]uint64, n),
		pc:     make([]uint64, k),
		live:   make([]uint64, n),
	}
	switch {
	case !maliciousFault:
	case spec.Corruption == LaneStar:
		if pStar := stat.RadioThreshold(spec.Graph.MaxDegree()); spec.P > pStar {
			r.starKeep = pStar / spec.P
		}
	case spec.Corruption == LaneEquivocate && spec.P > 0.5:
		r.equivSkip = (spec.P - 0.5) / spec.P
	}
	r.needAdv = r.noise || r.starKeep > 0 || r.equivSkip > 0
	r.pay = make([][]uint64, k)
	r.sym = make([][]uint64, k)
	for c := 0; c < k; c++ {
		r.pay[c] = make([]uint64, n)
		r.sym[c] = make([]uint64, n)
	}
	if spec.Model == Radio {
		r.once = make([]uint64, n)
		r.twice = make([]uint64, n)
		r.seen = make([][]uint64, k)
		for c := 0; c < k; c++ {
			r.seen[c] = make([]uint64, n)
		}
	}
	if spec.Model == Radio || spec.Targets == nil {
		r.nbrs = make([][]int, n)
		for v := 0; v < n; v++ {
			r.nbrs[v] = spec.Graph.Neighbors(v, nil)
		}
	}
	return r, nil
}

// Run executes trials baseSeed+0 .. baseSeed+count-1 (count clamped to
// [0, 64]) and returns their success verdicts: bit L of the result is
// trial baseSeed+L's success, bit-identical to the scalar engine's
// Result.Success for that seed. Bits at or above count are zero.
//
// Only the first count lanes are seeded and draw faults, so a partial
// block's sampling cost — the bulk of a block's work — scales with count.
// The lanes above count run fault-free: with their fault bits zero the
// adversary bank never draws for them either (its masks are fault words),
// and the verdict mask hides their outcome.
func (r *LaneRunner) Run(baseSeed uint64, count int) uint64 {
	if count <= 0 {
		return 0
	}
	lanes := min(count, LaneWidth)
	spec := r.spec
	n := spec.Graph.N()
	for lane := 0; lane < lanes; lane++ {
		// The scalar trial derives its streams from the trial master
		// rng.New(seed): the fault stream is the first Split (rng.New of the
		// master's first output), the adversary stream the second.
		src := rng.New(baseSeed + uint64(lane))
		r.seeds[lane] = src.Uint64()
		if r.needAdv {
			r.advSeeds[lane] = src.Uint64()
		}
	}
	r.rnd.Seed(r.seeds[:lanes])
	if r.needAdv {
		r.adv.Seed(r.advSeeds[:lanes])
	}
	r.kernel.Reset()
	pending := 0 // rounds since the last sampled one whose draws are deferred
	for round := 0; round < spec.Rounds; round++ {
		clear(r.intent)
		for _, payc := range r.pay {
			clear(payc)
		}
		r.kernel.Transmit(round, r.intent, r.pay)

		// Fault semantics. Each vertex draws one Bernoulli per lane per
		// round, in scalar order, and the sampler computes the live words
		// (markLive): fault[v] is zero for the rest. A round with no live
		// word is deferred: its fault words are zero, so the corruption
		// below reads and draws nothing, and its draws are passed over only
		// if a later round is sampled. NoFaults and p = 0 set no fault bit,
		// so every round is deferred and a block draws nothing (matching
		// the scalar engine, which skips sampling for NoFaults entirely).
		if spec.Fault != NoFaults && spec.P > 0 && r.markLive(n) {
			r.catchUp(pending, n, lanes)
			pending = 0
			r.rnd.BernoulliWords(spec.P, n, lanes, r.live, r.fault)
		} else {
			clear(r.fault)
			pending++
		}
		switch {
		case spec.Fault == Omission || spec.Corruption == LaneSilence:
			for v := 0; v < n; v++ {
				r.act[v] = r.intent[v] &^ r.fault[v]
			}
		case spec.Corruption == LaneFlip:
			// Targets unchanged; faulty payloads become the default. A
			// faulty vertex with no intent stays silent (Flip never adds
			// transmissions), which act=intent preserves.
			for v := 0; v < n; v++ {
				r.act[v] = r.intent[v]
			}
			for c := 0; c < r.k; c++ {
				payc := r.pay[c]
				for v := 0; v < n; v++ {
					payc[v] &^= r.fault[v]
				}
			}
		case spec.Corruption == LaneEquivocate:
			// Targets and non-source payloads unchanged (SourceOnly).
			// The slowing draw fires on every lane whose source is faulty
			// this round, transmitting or not, exactly like the scalar
			// adversary (it is invoked on the faulty set, not the
			// transmitting set; catchUp replays it for the rounds in which
			// the source intends in no lane); the surviving lanes toggle
			// the source's intended payloads between "0" and "1" (one
			// column flip).
			copy(r.act, r.intent)
			src := spec.Source
			swap := r.fault[src]
			if r.equivSkip > 0 && swap != 0 {
				swap &^= r.adv.LessMasked(r.equivSkip, swap)
			}
			r.pay[0][src] ^= swap & r.intent[src]
		case spec.Corruption == LaneStar:
			copy(r.act, r.intent)
			r.corruptStar(n)
		default: // LaneNoise
			// Targets unchanged; payload draws are fused into delivery,
			// which visits faulty transmissions in the scalar Corrupt
			// order (senders ascending, intents in emission order).
			copy(r.act, r.intent)
		}

		if spec.Model == MessagePassing {
			r.deliverMP(n)
		} else {
			r.deliverRadio(n)
		}
		r.kernel.Absorb(round, r.heard, r.sym)
	}
	return r.kernel.Verdict() & (^uint64(0) >> uint(LaneWidth-lanes))
}

// markLive fills r.live with the fault words this round's corruption
// reads and reports whether any is nonzero. Omission and the silencing,
// flipping and noise corruptions read the intended transmitters'. The
// equivocator reads only the source's (act = intent, and only the
// source's payload changes): in the lanes where it intends, or — when
// the slowing draw is gated on it — in every lane of a round where it
// intends in any. The star reads every vertex's, in the S-step lanes
// only unless it slows (faults outside S-steps have no effect).
func (r *LaneRunner) markLive(n int) bool {
	switch r.spec.Corruption {
	case LaneEquivocate:
		w := r.intent[r.spec.Source]
		if r.equivSkip > 0 && w != 0 {
			w = ^uint64(0)
		}
		r.live[r.spec.Source] = w
		return w != 0
	case LaneStar:
		w := ^uint64(0)
		if r.starKeep == 0 {
			w = r.sStep(n)
		}
		for v := 0; v < n; v++ {
			r.live[v] = w
		}
		return w != 0
	}
	var or uint64
	for v := 0; v < n; v++ {
		r.live[v] = r.intent[v]
		or |= r.intent[v]
	}
	return or != 0
}

// catchUp advances the fault stream over the pending rounds deferred since
// the last sampled one, just before the next is sampled. The slowing
// equivocator replays each round's source read and its slowing draws in
// round order, since the adversary stream's position depends on them
// (r.live holds exactly the source's word then); every other corruption
// read nothing in those rounds, so their draws are state steps alone.
func (r *LaneRunner) catchUp(pending, n, lanes int) {
	for ; r.equivSkip > 0 && pending > 0; pending-- {
		r.rnd.BernoulliWords(r.spec.P, n, lanes, r.live, r.fault)
		r.adv.LessMasked(r.equivSkip, r.fault[r.spec.Source])
	}
	if pending > 0 {
		r.rnd.Skip(pending*n, lanes)
	}
}

// sStep returns the S-step lanes: the source intends to transmit and
// nobody else does.
func (r *LaneRunner) sStep(n int) uint64 {
	src := r.spec.Source
	var others uint64
	for v := 0; v < n; v++ {
		if v != src {
			others |= r.intent[v]
		}
	}
	return r.intent[src] &^ others
}

// corruptStar applies LaneStar to this round's intents (act = intent on
// entry). The slowing draws rewrite r.fault in place into the effectively
// faulty lanes, like the scalar adversary's in-place filter; per lane they
// visit the faulty vertices in ascending order, one draw each, exactly the
// scalar draw order.
func (r *LaneRunner) corruptStar(n int) {
	eff := r.fault
	if r.starKeep > 0 {
		for v := 0; v < n; v++ {
			if eff[v] != 0 {
				eff[v] = r.adv.LessMasked(r.starKeep, eff[v])
			}
		}
	}
	src := r.spec.Source
	sStep := r.sStep(n)
	if sStep == 0 {
		return
	}
	// Faulty source: swap "0" and "1" (swapPayload leaves a third-symbol
	// payload alone); the other faulty vertices have no intent to drop.
	r.pay[0][src] ^= sStep & eff[src] &^ r.pay[1][src]
	// Healthy source: every effectively faulty vertex (the source is not
	// one in these lanes) jams with "#".
	jam := sStep &^ eff[src]
	for v := 0; v < n; v++ {
		if j := eff[v] & jam; j != 0 {
			r.act[v] |= j
			r.pay[0][v] &^= j
			r.pay[1][v] |= j
		}
	}
}

// deliverMP is the transposed message-passing rule. heard[u] collects the
// lanes in which u receives at least one message; sym[c][u] reports, per
// lane, symbol column c of the LOWEST-ID transmitting sender — the first
// delivery of the scalar engine's increasing-sender order. The paper's
// protocols either receive from a single sender per round (tree-directed
// traffic) or adopt the first delivery, so the first-sender payload is
// exactly what their kernels need. LaneNoise redraws a faulty sender's
// payload per directed target (or once per broadcast), matching the scalar
// adversary's one-draw-per-intent rule.
func (r *LaneRunner) deliverMP(n int) {
	clear(r.heard)
	for _, symc := range r.sym {
		clear(symc)
	}
	targets := r.spec.Targets
	if r.k == 1 && !r.noise {
		// Two-symbol fast path: the original one-column delivery loop.
		pay0, sym0 := r.pay[0], r.sym[0]
		for w := 0; w < n; w++ {
			a := r.act[w]
			if a == 0 {
				continue
			}
			pm := pay0[w] & a
			var tos []int
			if targets != nil {
				tos = targets[w]
			} else {
				tos = r.nbrs[w]
			}
			for _, u := range tos {
				sym0[u] |= pm &^ r.heard[u]
				r.heard[u] |= a
			}
		}
		return
	}
	noiseCol := r.spec.NoiseSym - 1
	for w := 0; w < n; w++ {
		a := r.act[w]
		if a == 0 {
			continue
		}
		for c := 0; c < r.k; c++ {
			r.pc[c] = r.pay[c][w] & a
		}
		var draw uint64
		if r.noise {
			draw = r.fault[w] & a
		}
		if targets != nil {
			for _, u := range targets[w] {
				fresh := ^r.heard[u]
				if draw != 0 {
					// One draw per (sender, target) intent, in target-list
					// order — the emission order of the scalar protocols.
					high := r.adv.Intn2Masked(draw)
					for c := 0; c < r.k; c++ {
						pc := r.pc[c] &^ draw
						if c == noiseCol {
							pc |= high
						}
						r.sym[c][u] |= pc & fresh
					}
				} else {
					for c := 0; c < r.k; c++ {
						r.sym[c][u] |= r.pc[c] & fresh
					}
				}
				r.heard[u] |= a
			}
			continue
		}
		if draw != 0 {
			// A broadcast is one intent: one draw per transmitting faulty
			// vertex, shared by every neighbor.
			high := r.adv.Intn2Masked(draw)
			for c := 0; c < r.k; c++ {
				r.pc[c] &^= draw
				if c == noiseCol {
					r.pc[c] |= high
				}
			}
		}
		for _, u := range r.nbrs[w] {
			fresh := ^r.heard[u]
			for c := 0; c < r.k; c++ {
				r.sym[c][u] |= r.pc[c] & fresh
			}
			r.heard[u] |= a
		}
	}
}

// deliverRadio is the transposed radio collision rule: per lane, a vertex
// hears iff it is silent and exactly one neighbor transmits, in which case
// the seen columns carry that unique neighbor's payload symbol. LaneNoise
// redraws a faulty transmitter's payload once per vertex (a radio
// transmission is a single broadcast intent).
func (r *LaneRunner) deliverRadio(n int) {
	clear(r.once)
	clear(r.twice)
	for _, seenc := range r.seen {
		clear(seenc)
	}
	if r.k == 1 && !r.noise {
		// Two-symbol fast path: the original one-column collision loop.
		pay0, seen0, sym0 := r.pay[0], r.seen[0], r.sym[0]
		for w := 0; w < n; w++ {
			a := r.act[w]
			if a == 0 {
				continue
			}
			pm := pay0[w] & a
			for _, u := range r.nbrs[w] {
				r.twice[u] |= r.once[u] & a
				r.once[u] |= a
				seen0[u] |= pm
			}
		}
		for v := 0; v < n; v++ {
			h := r.once[v] &^ r.twice[v] &^ r.act[v]
			r.heard[v] = h
			sym0[v] = h & seen0[v]
		}
		return
	}
	noiseCol := r.spec.NoiseSym - 1
	for w := 0; w < n; w++ {
		a := r.act[w]
		if a == 0 {
			continue
		}
		for c := 0; c < r.k; c++ {
			r.pc[c] = r.pay[c][w] & a
		}
		if r.noise {
			if draw := r.fault[w] & a; draw != 0 {
				high := r.adv.Intn2Masked(draw)
				for c := 0; c < r.k; c++ {
					r.pc[c] &^= draw
					if c == noiseCol {
						r.pc[c] |= high
					}
				}
			}
		}
		for _, u := range r.nbrs[w] {
			r.twice[u] |= r.once[u] & a
			r.once[u] |= a
			for c := 0; c < r.k; c++ {
				r.seen[c][u] |= r.pc[c]
			}
		}
	}
	for v := 0; v < n; v++ {
		h := r.once[v] &^ r.twice[v] &^ r.act[v]
		r.heard[v] = h
		for c := 0; c < r.k; c++ {
			r.sym[c][v] = h & r.seen[c][v]
		}
	}
}
