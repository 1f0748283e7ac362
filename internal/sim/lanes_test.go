package sim

import (
	"fmt"
	"testing"

	"faultcast/internal/graph"
	"faultcast/internal/rng"
	"faultcast/internal/stat"
)

// This file extends the differential matrix to the lane-transposed core:
// for every generated configuration (the same genCase matrix the
// bitset-vs-scalar and sequential-vs-concurrent tests run on, plus a
// matrix of drawing adversaries and one of the star adversary), the lane
// runner's per-trial success verdicts must be bit-identical to the scalar
// reference engine's Result.Success across a full 64-trial block. The
// test protocols (floodNode for message passing and radio flooding,
// relayNode for the radio TDMA relay) are re-expressed as lane kernels
// below, and the adversaries map onto the lane corruption modes
// (silencer → LaneSilence, flip → LaneFlip, noise → LaneNoise,
// equivocator → LaneEquivocate, star → LaneStar). genCase's out-of-turn
// adversary has no lane counterpart: the only corruption that transmits
// out of turn is LaneStar, which its own matrix covers.

// floodLaneKernel is floodNode in the transposed layout: every informed
// vertex broadcasts its belief each round; an uninformed vertex adopts the
// first payload delivered (whatever it is, or, when genuine, the first
// non-default one). has marks informed lanes, the bel columns the adopted
// payload's symbol (bel[0] = "belief is M").
type floodLaneKernel struct {
	source  int
	genuine bool
	has     []uint64
	bel     [][]uint64
}

func newFloodLaneKernel(source, n, symbols int, genuine bool) *floodLaneKernel {
	k := &floodLaneKernel{source: source, genuine: genuine, has: make([]uint64, n), bel: make([][]uint64, symbols-1)}
	for c := range k.bel {
		k.bel[c] = make([]uint64, n)
	}
	return k
}

func (k *floodLaneKernel) Reset() {
	for v := range k.has {
		k.has[v] = 0
		for c := range k.bel {
			k.bel[c][v] = 0
		}
	}
	k.has[k.source] = ^uint64(0)
	k.bel[0][k.source] = ^uint64(0)
}

func (k *floodLaneKernel) Transmit(round int, intent []uint64, pay [][]uint64) {
	for v := range k.has {
		intent[v] = k.has[v]
		for c := range k.bel {
			pay[c][v] = k.bel[c][v]
		}
	}
}

func (k *floodLaneKernel) Absorb(round int, heard []uint64, sym [][]uint64) {
	for v := range k.has {
		adopt := heard[v] &^ k.has[v]
		if k.genuine {
			var nonDef uint64
			for c := range sym {
				nonDef |= sym[c][v]
			}
			adopt &= nonDef
		}
		for c := range k.bel {
			k.bel[c][v] |= adopt & sym[c][v]
		}
		k.has[v] |= adopt
	}
}

func (k *floodLaneKernel) Verdict() uint64 {
	and := ^uint64(0)
	for _, w := range k.bel[0] {
		and &= w
	}
	return and
}

// relayLaneKernel is relayNode in the transposed layout: the TDMA radio
// relay where an informed vertex v transmits its belief in the slots
// round ≡ v (mod n).
type relayLaneKernel struct {
	source int
	has    []uint64
	bel    [][]uint64
}

func newRelayLaneKernel(source, n, symbols int) *relayLaneKernel {
	k := &relayLaneKernel{source: source, has: make([]uint64, n), bel: make([][]uint64, symbols-1)}
	for c := range k.bel {
		k.bel[c] = make([]uint64, n)
	}
	return k
}

func (k *relayLaneKernel) Reset() {
	for v := range k.has {
		k.has[v] = 0
		for c := range k.bel {
			k.bel[c][v] = 0
		}
	}
	k.has[k.source] = ^uint64(0)
	k.bel[0][k.source] = ^uint64(0)
}

func (k *relayLaneKernel) Transmit(round int, intent []uint64, pay [][]uint64) {
	v := round % len(k.has)
	intent[v] = k.has[v]
	for c := range k.bel {
		pay[c][v] = k.bel[c][v]
	}
}

func (k *relayLaneKernel) Absorb(round int, heard []uint64, sym [][]uint64) {
	for v := range k.has {
		adopt := heard[v] &^ k.has[v]
		for c := range k.bel {
			k.bel[c][v] |= adopt & sym[c][v]
		}
		k.has[v] |= adopt
	}
}

func (k *relayLaneKernel) Verdict() uint64 {
	and := ^uint64(0)
	for _, w := range k.bel[0] {
		and &= w
	}
	return and
}

// noiseAdversary mirrors adversary.RandomNoise with the default {"0","1"}
// alphabet: one uniform draw per intended transmission of each faulty
// node, targets kept. (The test redeclares it so the sim package's
// differential harness stays free of the adversary package.)
type noiseAdversary struct{}

func (noiseAdversary) Corrupt(e *Exec, faulty []int) map[int][]Transmission {
	ab := [][]byte{{'0'}, {'1'}}
	out := make(map[int][]Transmission, len(faulty))
	for _, id := range faulty {
		ts := make([]Transmission, 0, len(e.Intents[id]))
		for _, intent := range e.Intents[id] {
			ts = append(ts, Transmission{To: intent.To, Payload: ab[e.Rand.Intn(len(ab))]})
		}
		out[id] = ts
	}
	return out
}

// equivocatorAdversary mirrors adversary.Equivocator{M0:"0", M1:"1",
// SourceOnly:true}: whenever the source is faulty, its payloads toggle
// between "0" and "1" (others unchanged), except that for P > 1/2 the
// slowing draw skips the swap with probability (P−1/2)/P.
type equivocatorAdversary struct{}

func (equivocatorAdversary) Corrupt(e *Exec, faulty []int) map[int][]Transmission {
	out := make(map[int][]Transmission, len(faulty))
	for _, id := range faulty {
		if id != e.Source {
			continue
		}
		if e.P > 0.5 && e.Rand.Float64() < (e.P-0.5)/e.P {
			continue
		}
		intents := e.Intents[id]
		ts := make([]Transmission, 0, len(intents))
		for _, intent := range intents {
			p := intent.Payload
			switch string(p) {
			case "0":
				p = []byte("1")
			case "1":
				p = []byte("0")
			}
			ts = append(ts, Transmission{To: intent.To, Payload: p})
		}
		out[id] = ts
	}
	return out
}

// starAdversary mirrors adversary.Star{M0:"0", M1:"1"}, the Theorem 2.4
// adversary: above p*(Δ) each faulty vertex stays effectively faulty with
// probability p*/P (one Float64 draw per faulty id, ascending); in an
// S-step (only the source intends to transmit) an effectively faulty
// source swaps "0" and "1", otherwise every effectively faulty vertex
// broadcasts the jam "#"; outside S-steps nothing is corrupted.
type starAdversary struct{}

func (starAdversary) Corrupt(e *Exec, faulty []int) map[int][]Transmission {
	eff := faulty
	if pStar := stat.RadioThreshold(e.G.MaxDegree()); e.P > pStar {
		eff = nil
		for _, id := range faulty {
			if e.Rand.Float64() < pStar/e.P {
				eff = append(eff, id)
			}
		}
	}
	if len(eff) == 0 || len(e.Intents[e.Source]) == 0 {
		return nil
	}
	for id, intents := range e.Intents {
		if id != e.Source && len(intents) > 0 {
			return nil // not an S-step
		}
	}
	srcFaulty := false
	for _, id := range eff {
		srcFaulty = srcFaulty || id == e.Source
	}
	out := make(map[int][]Transmission, len(eff))
	for _, id := range eff {
		switch {
		case !srcFaulty:
			out[id] = []Transmission{{To: Broadcast, Payload: []byte("#")}}
		case id == e.Source:
			p := e.Intents[id][0].Payload
			switch string(p) {
			case "0":
				p = []byte("1")
			case "1":
				p = []byte("0")
			}
			out[id] = []Transmission{{To: Broadcast, Payload: p}}
		default:
			out[id] = nil // the other faulty vertices keep silent
		}
	}
	return out
}

// laneSpecFor lowers a differential configuration to a LaneSpec. The
// symbol alphabet follows the public layer's rule: two symbols unless the
// noise adversary's "1" falls outside {default, M}.
func laneSpecFor(cfg *Config, advName string) *LaneSpec {
	n := cfg.Graph.N()
	spec := &LaneSpec{
		Graph:  cfg.Graph,
		Model:  cfg.Model,
		Fault:  cfg.Fault,
		P:      cfg.P,
		Rounds: cfg.Rounds,
		Source: cfg.Source,
	}
	symbols := 2
	switch advName {
	case "silencer":
		spec.Corruption = LaneSilence
	case "flip":
		spec.Corruption = LaneFlip
	case "noise":
		spec.Corruption = LaneNoise
		if string(cfg.SourceMsg) == "1" {
			spec.NoiseSym = 1
		} else {
			symbols = 3
			spec.NoiseSym = 2
		}
	case "equivocator":
		spec.Corruption = LaneEquivocate
	case "star":
		spec.Corruption = LaneStar
		symbols = 3 // the jam "#" is a third symbol
	}
	spec.Symbols = symbols
	// The kernel mirrors the configuration's test node.
	if fn, ok := cfg.NewNode(0).(*floodNode); ok {
		spec.NewKernel = func(symbols int) LaneKernel {
			return newFloodLaneKernel(cfg.Source, n, symbols, fn.genuine)
		}
	} else {
		spec.NewKernel = func(symbols int) LaneKernel {
			return newRelayLaneKernel(cfg.Source, n, symbols)
		}
	}
	return spec
}

// advNameOf recovers the adversary label genCase picked (genCase reports
// it only inside desc, so re-derive it from the concrete type).
func advNameOf(cfg *Config) string {
	switch cfg.Adversary.(type) {
	case silencerAdversary:
		return "silencer"
	case flipAdversary:
		return "flip"
	case outOfTurnAdversary:
		return "out-of-turn"
	case noiseAdversary:
		return "noise"
	case equivocatorAdversary:
		return "equivocator"
	case starAdversary:
		return "star"
	default:
		return "none"
	}
}

// genDrawCase derives configuration i of the drawing-adversary matrix:
// the noise adversary over both the three-symbol (message "diff") and
// two-symbol (message "1") alphabets, and the source-only equivocator on
// bit messages — including p > 1/2, which exercises the slowing draw.
func genDrawCase(i int) diffCase {
	r := rng.New(uint64(i)*0x51ed2701 + 5)
	model := []Model{MessagePassing, Radio}[r.Intn(2)]
	fault := []FaultType{Malicious, LimitedMalicious}[r.Intn(2)]
	p := []float64{0.05, 0.2, 0.4, 0.6, 0.8}[r.Intn(5)]

	var g *graph.Graph
	switch r.Intn(5) {
	case 0:
		g = graph.Line(2 + r.Intn(14))
	case 1:
		g = graph.Star(2 + r.Intn(14))
	case 2:
		g = graph.KaryTree(2+r.Intn(14), 1+r.Intn(3))
	case 3:
		g = graph.Complete(2 + r.Intn(8))
	default:
		g = graph.GNP(2+r.Intn(14), 0.2+0.4*r.Float64(), r)
	}
	n := g.N()

	cfg := &Config{
		Graph:  g,
		Model:  model,
		Fault:  fault,
		P:      p,
		Source: r.Intn(n),
		Rounds: 1 + r.Intn(2*n+4),
		Seed:   uint64(i)*40503 + 7,
	}
	var advName string
	switch r.Intn(3) {
	case 0:
		cfg.Adversary, advName = noiseAdversary{}, "noise"
		cfg.SourceMsg = []byte("diff") // 3 symbols: noise's "1" is a third value
	case 1:
		cfg.Adversary, advName = noiseAdversary{}, "noise"
		cfg.SourceMsg = []byte("1") // 2 symbols: the alphabet is {default, M}
	default:
		cfg.Adversary, advName = equivocatorAdversary{}, "equivocator"
		cfg.SourceMsg = []byte("1")
	}
	if model == MessagePassing {
		cfg.NewNode = func(id int) Node { return &floodNode{} }
	} else {
		cfg.NewNode = func(id int) Node { return &relayNode{} }
	}
	return diffCase{
		desc: fmt.Sprintf("draw case %d: %v/%v/%s msg=%s p=%v g=%v src=%d rounds=%d seed=%d",
			i, model, fault, advName, cfg.SourceMsg, p, g, cfg.Source, cfg.Rounds, cfg.Seed),
		cfg: cfg,
	}
}

const drawCases = 100

// partialCounts are the block sizes below LaneWidth the differential
// check replays: single-lane, odd, and both sides of the 32-trial batch.
var partialCounts = []int{1, 7, 31, 32, 33, 63}

// checkLanesVsScalar runs one differential comparison: a full 64-lane
// block against 64 scalar reference trials, plus partial blocks at every
// partialCounts size and runner reuse.
func checkLanesVsScalar(t *testing.T, c diffCase) {
	t.Helper()
	spec := laneSpecFor(c.cfg, advNameOf(c.cfg))
	lr, err := NewLaneRunner(spec)
	if err != nil {
		t.Fatalf("%s: NewLaneRunner: %v", c.desc, err)
	}

	refCfg := *c.cfg
	refCfg.RecordHistory = false
	refCfg.TrackCompletion = false
	runner, err := NewScalarRunner(&refCfg)
	if err != nil {
		t.Fatalf("%s: NewScalarRunner: %v", c.desc, err)
	}

	base := c.cfg.Seed
	got := lr.Run(base, LaneWidth)
	var want uint64
	for lane := 0; lane < LaneWidth; lane++ {
		res, err := runner.Run(base + uint64(lane))
		if err != nil {
			t.Fatalf("%s: scalar trial %d: %v", c.desc, lane, err)
		}
		if res.Success {
			want |= 1 << uint(lane)
		}
	}
	if got != want {
		t.Fatalf("%s: lane verdicts %016x != scalar %016x (xor %016x)", c.desc, got, want, got^want)
	}

	// Partial blocks draw only their own lanes yet never change them —
	// 32 is the stop-rule batch width every ruled estimate claims — and a
	// reused runner must reproduce the block bit-identically.
	for _, count := range partialCounts {
		if partial, masked := lr.Run(base, count), want&(1<<uint(count)-1); partial != masked {
			t.Fatalf("%s: partial block of %d %016x != masked %016x", c.desc, count, partial, masked)
		}
	}
	if again := lr.Run(base, LaneWidth); again != want {
		t.Fatalf("%s: reused lane runner diverged: %016x != %016x", c.desc, again, want)
	}
}

// TestDifferentialLanesVsScalar: for every generated configuration with a
// lane counterpart (all but the out-of-turn ones), a full 64-lane trial
// block agrees, trial for trial, with the scalar reference core —
// including partial-block masking.
func TestDifferentialLanesVsScalar(t *testing.T) {
	for i := 0; i < diffCases; i++ {
		if c := genCase(i); advNameOf(c.cfg) != "out-of-turn" {
			checkLanesVsScalar(t, c)
		}
	}
}

// TestDifferentialLanesVsScalarDrawingAdversaries runs the same check over
// the matrix of adversaries that consume randomness (noise over both
// alphabet widths, the slowing equivocator), pinning the lane adversary
// bank's per-lane draw order against the scalar adversary stream.
func TestDifferentialLanesVsScalarDrawingAdversaries(t *testing.T) {
	for i := 0; i < drawCases; i++ {
		checkLanesVsScalar(t, genDrawCase(i))
	}
}

// genStarCase derives configuration i of the star-adversary matrix:
// full-malicious radio runs under the Theorem 2.4 adversary, at rates on
// both sides of the graph's p*(Δ) — the ones above it run the slowing
// draws — on stars (the proof's topology, source at a leaf or the root),
// lines, trees, cliques and random graphs. Three protocols make each part
// of the adversary observable: the TDMA relay (every source slot is an
// S-step), radio flooding (the source keeps transmitting alongside the
// vertices it informed, so most of its rounds are not S-steps), and
// flooding that adopts only non-default payloads (a jam "#" is adopted
// and blocks M, where a default "0" would be ignored).
func genStarCase(i int) diffCase {
	r := rng.New(uint64(i)*0x2545f491 + 3)
	var g *graph.Graph
	switch r.Intn(5) {
	case 0:
		g = graph.Star(2 + r.Intn(10))
	case 1:
		g = graph.Line(2 + r.Intn(14))
	case 2:
		g = graph.KaryTree(2+r.Intn(14), 1+r.Intn(3))
	case 3:
		g = graph.Complete(2 + r.Intn(6))
	default:
		g = graph.GNP(2+r.Intn(14), 0.2+0.4*r.Float64(), r)
	}
	n := g.N()
	pStar := stat.RadioThreshold(g.MaxDegree())
	p := pStar * []float64{0.3, 0.8, 1, 1.2, 2}[r.Intn(5)]
	if p >= 1 {
		p = 0.9
	}
	cfg := &Config{
		Graph: g, Model: Radio, Fault: Malicious, P: p,
		Source:    r.Intn(n),
		SourceMsg: []byte("1"),
		Rounds:    1 + r.Intn(3*n+4),
		Seed:      uint64(i)*7919 + 13,
		Adversary: starAdversary{},
	}
	node := []string{"relay", "flood", "genuine-flood"}[r.Intn(3)]
	switch node {
	case "relay":
		cfg.NewNode = func(id int) Node { return &relayNode{} }
	default:
		genuine := node == "genuine-flood"
		cfg.NewNode = func(id int) Node { return &floodNode{genuine: genuine} }
	}
	return diffCase{
		desc: fmt.Sprintf("star case %d: %s p=%v (p*=%v) g=%v src=%d rounds=%d seed=%d",
			i, node, p, pStar, g, cfg.Source, cfg.Rounds, cfg.Seed),
		cfg: cfg,
	}
}

const starCases = 100

// TestDifferentialLanesVsScalarStar runs the lane-vs-scalar check over the
// star-adversary matrix: the slowing draws on the adversary bank, the
// S-step mask, the source's swap and the third-symbol jam, per trial and
// across partial blocks.
func TestDifferentialLanesVsScalarStar(t *testing.T) {
	slowed := 0
	for i := 0; i < starCases; i++ {
		c := genStarCase(i)
		if c.cfg.P > stat.RadioThreshold(c.cfg.Graph.MaxDegree()) {
			slowed++
		}
		checkLanesVsScalar(t, c)
	}
	if slowed == 0 || slowed == starCases {
		t.Fatalf("%d of %d star cases above p*; the matrix must cover both sides", slowed, starCases)
	}
}

// burstRounds are the rounds the burst protocol speaks in: runs of two,
// one and three rounds with silent rounds between them, and silent rounds
// after them up to burstHorizon. Every corruption defers the silent
// rounds, mid-block and at the block's end.
var burstRounds = map[int]bool{0: true, 1: true, 5: true, 9: true, 10: true, 11: true}

const burstHorizon = 16

// burstNode is floodNode speaking only in burstRounds.
type burstNode struct{ floodNode }

func (b *burstNode) Transmit(round int) []Transmission {
	if !burstRounds[round] {
		return nil
	}
	return b.floodNode.Transmit(round)
}

// burstLaneKernel is burstNode in the transposed layout.
type burstLaneKernel struct{ *floodLaneKernel }

func (k burstLaneKernel) Transmit(round int, intent []uint64, pay [][]uint64) {
	if burstRounds[round] {
		k.floodLaneKernel.Transmit(round, intent, pay)
	}
}

// TestDifferentialLanesVsScalarDeferredRounds witnesses the lane runner's
// deferral of rounds whose fault words nobody reads. Under the burst
// protocol the source speaks in rounds {0, 1}, {5} and {9-11} only, so
// the equivocator (at p <= 1/2 and with the slowing draws at p > 1/2),
// silencing and the star adversary below p*(Δ) each pass over the silent
// rounds between the bursts before sampling the next one, and drop the
// trailing ones. Per trial, over 272 seeds, full 64-lane and partial
// 17-lane blocks must agree with the scalar reference, which draws every
// round.
func TestDifferentialLanesVsScalarDeferredRounds(t *testing.T) {
	type shape struct {
		name  string
		model Model
		fault FaultType
		p     float64
		adv   Adversary
	}
	const seeds = 272
	for _, g := range []*graph.Graph{graph.Line(6), graph.Star(5), graph.Grid(3, 3)} {
		pStar := stat.RadioThreshold(g.MaxDegree())
		for _, sh := range []shape{
			{"equivocator", MessagePassing, Malicious, 0.3, equivocatorAdversary{}},
			{"equivocator", MessagePassing, LimitedMalicious, 0.6, equivocatorAdversary{}},
			{"silencer", Radio, Malicious, 0.4, silencerAdversary{}},
			{"star", Radio, Malicious, 0.8 * pStar, starAdversary{}},
		} {
			cfg := &Config{
				Graph: g, Model: sh.model, Fault: sh.fault, P: sh.p,
				Source:    1,
				SourceMsg: []byte("1"),
				Rounds:    burstHorizon,
				Adversary: sh.adv,
				NewNode:   func(id int) Node { return &burstNode{floodNode{genuine: true}} },
			}
			desc := fmt.Sprintf("%s %v/%v p=%v g=%v", sh.name, sh.model, sh.fault, sh.p, g)
			spec := laneSpecFor(cfg, sh.name)
			spec.NewKernel = func(symbols int) LaneKernel {
				return burstLaneKernel{newFloodLaneKernel(cfg.Source, g.N(), symbols, true)}
			}
			lr, err := NewLaneRunner(spec)
			if err != nil {
				t.Fatalf("%s: NewLaneRunner: %v", desc, err)
			}
			runner, err := NewScalarRunner(cfg)
			if err != nil {
				t.Fatalf("%s: NewScalarRunner: %v", desc, err)
			}
			const base = 0xdefe44ed
			var want [seeds]bool
			successes := 0
			for i := range want {
				res, err := runner.Run(base + uint64(i))
				if err != nil {
					t.Fatalf("%s: scalar trial %d: %v", desc, i, err)
				}
				if want[i] = res.Success; want[i] {
					successes++
				}
			}
			t.Logf("%s: %d/%d", desc, successes, seeds)
			for _, count := range []int{LaneWidth, 17} {
				for first := 0; first+count <= seeds; first += count {
					got := lr.Run(base+uint64(first), count)
					for lane := 0; lane < count; lane++ {
						if got>>uint(lane)&1 == 1 != want[first+lane] {
							t.Fatalf("%s: block of %d at seed %d, lane %d: lanes=%v scalar=%v",
								desc, count, base+first, lane, !want[first+lane], want[first+lane])
						}
					}
				}
			}
		}
	}
}

// TestLaneSpecValidate pins the gates that keep unsupported shapes out of
// the lane engine.
func TestLaneSpecValidate(t *testing.T) {
	c := genCase(0)
	ok := laneSpecFor(c.cfg, "silencer")
	mk := func(mutate func(*LaneSpec)) *LaneSpec {
		s := *ok
		mutate(&s)
		return &s
	}
	cases := []struct {
		name string
		spec *LaneSpec
	}{
		{"nil graph", mk(func(s *LaneSpec) { s.Graph = nil })},
		{"nil kernel", mk(func(s *LaneSpec) { s.NewKernel = nil })},
		{"negative rounds", mk(func(s *LaneSpec) { s.Rounds = -1 })},
		{"bad model", mk(func(s *LaneSpec) { s.Model = Model(9) })},
		{"bad fault", mk(func(s *LaneSpec) { s.Fault = FaultType(9) })},
		{"p out of range", mk(func(s *LaneSpec) { s.Fault = Omission; s.P = 1 })},
		{"radio with targets", mk(func(s *LaneSpec) { s.Model = Radio; s.Targets = make([][]int, s.Graph.N()) })},
		{"bad symbol count", mk(func(s *LaneSpec) { s.Symbols = 4 })},
		{"one symbol", mk(func(s *LaneSpec) { s.Symbols = 1 })},
		{"omission noise", mk(func(s *LaneSpec) {
			s.Fault = Omission
			s.Corruption = LaneNoise
			s.NoiseSym = 1
		})},
		{"noise symbol inconsistent (2-sym)", mk(func(s *LaneSpec) {
			s.Fault = Malicious
			s.Corruption = LaneNoise
			s.Symbols = 2
			s.NoiseSym = 2
		})},
		{"noise symbol inconsistent (3-sym)", mk(func(s *LaneSpec) {
			s.Fault = Malicious
			s.Corruption = LaneNoise
			s.Symbols = 3
			s.NoiseSym = 1
		})},
		{"noise symbol unset", mk(func(s *LaneSpec) {
			s.Fault = Malicious
			s.Corruption = LaneNoise
		})},
		{"omission equivocate", mk(func(s *LaneSpec) {
			s.Fault = Omission
			s.Corruption = LaneEquivocate
		})},
		{"equivocate source out of range", mk(func(s *LaneSpec) {
			s.Fault = Malicious
			s.Corruption = LaneEquivocate
			s.Source = s.Graph.N()
		})},
		{"three-symbol equivocate", mk(func(s *LaneSpec) {
			s.Fault = Malicious
			s.Corruption = LaneEquivocate
			s.Symbols = 3
		})},
		{"limited star", mk(func(s *LaneSpec) {
			s.Model = Radio
			s.Fault = LimitedMalicious
			s.Corruption = LaneStar
			s.Symbols = 3
		})},
		{"message-passing star", mk(func(s *LaneSpec) {
			s.Model = MessagePassing
			s.Fault = Malicious
			s.Corruption = LaneStar
			s.Symbols = 3
		})},
		{"two-symbol star", mk(func(s *LaneSpec) {
			s.Model = Radio
			s.Fault = Malicious
			s.Corruption = LaneStar
		})},
		{"star source out of range", mk(func(s *LaneSpec) {
			s.Model = Radio
			s.Fault = Malicious
			s.Corruption = LaneStar
			s.Symbols = 3
			s.Source = -1
		})},
	}
	for _, tc := range cases {
		if _, err := NewLaneRunner(tc.spec); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	if _, err := NewLaneRunner(ok); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}
