package sim

import (
	"bytes"
	"fmt"
	"testing"

	"faultcast/internal/graph"
	"faultcast/internal/rng"
)

// This file is the differential-equivalence harness of the bitset core: a
// randomized configuration generator (model × fault type × adversary ×
// graph family × p × seed) drives bit-identity checks of
//
//   - the word-parallel bitset core against the scalar reference core, and
//   - the sequential engine against the goroutine-per-node engine,
//
// on every generated configuration, comparing full results AND full
// histories (fault sets, post-fault transmissions, deliveries, collision
// counts, per-node informing rounds) byte for byte. Roughly 200 cases run
// even under -short; the generator is deterministic, so a failure report's
// case index reproduces exactly.

// diffCase is one generated configuration plus its provenance for error
// reporting.
type diffCase struct {
	desc string
	cfg  *Config
}

// genCase derives configuration i deterministically. Graphs stay small
// (n <= 26) so the whole matrix runs in well under a second per engine.
func genCase(i int) diffCase {
	r := rng.New(uint64(i)*0x9e3779b9 + 17)
	model := []Model{MessagePassing, Radio}[r.Intn(2)]
	fault := []FaultType{NoFaults, Omission, Malicious, LimitedMalicious}[r.Intn(4)]
	p := []float64{0, 0.05, 0.2, 0.4, 0.6, 0.8}[r.Intn(6)]

	var g *graph.Graph
	family := r.Intn(9)
	switch family {
	case 0:
		g = graph.Line(2 + r.Intn(24))
	case 1:
		g = graph.Ring(3 + r.Intn(23))
	case 2:
		g = graph.Star(2 + r.Intn(24))
	case 3:
		g = graph.Grid(2+r.Intn(4), 2+r.Intn(5))
	case 4:
		g = graph.KaryTree(2+r.Intn(24), 1+r.Intn(3))
	case 5:
		g = graph.Complete(2 + r.Intn(10))
	case 6:
		g = graph.Hypercube(1 + r.Intn(4))
	case 7:
		g = graph.Layered(1 + r.Intn(3))
	default:
		g = graph.GNP(2+r.Intn(24), 0.1+0.3*r.Float64(), r)
	}
	n := g.N()

	cfg := &Config{
		Graph:           g,
		Model:           model,
		Fault:           fault,
		P:               p,
		Source:          r.Intn(n),
		SourceMsg:       []byte("diff"),
		Rounds:          1 + r.Intn(2*n+4),
		Seed:            uint64(i)*2654435761 + 99,
		TrackCompletion: true,
	}
	if model == MessagePassing {
		cfg.NewNode = func(id int) Node { return &floodNode{} }
	} else {
		cfg.NewNode = func(id int) Node { return &relayNode{} }
	}
	advName := "none"
	if fault == Malicious || fault == LimitedMalicious {
		// outOfTurnAdversary is illegal under LimitedMalicious (it speaks
		// out of turn), so the limited variant draws from the legal pair.
		switch r.Intn(3) {
		case 0:
			cfg.Adversary, advName = silencerAdversary{}, "silencer"
		case 1:
			cfg.Adversary, advName = flipAdversary{}, "flip"
		default:
			if fault == Malicious {
				cfg.Adversary, advName = outOfTurnAdversary{}, "out-of-turn"
			} else {
				cfg.Adversary, advName = flipAdversary{}, "flip"
			}
		}
	}
	return diffCase{
		desc: fmt.Sprintf("case %d: %v/%v/%s p=%v g=%v src=%d rounds=%d seed=%d",
			i, model, fault, advName, p, g, cfg.Source, cfg.Rounds, cfg.Seed),
		cfg: cfg,
	}
}

// execution is one run's result plus every round record its Observer
// kept: the whole execution, for bit-for-bit comparisons.
type execution struct {
	*Result
	rounds []*RoundRecord
}

// recorder is an Observer that keeps every round record it receives.
type recorder struct{ rounds []*RoundRecord }

func (r *recorder) observe(rec *RoundRecord) { r.rounds = append(r.rounds, rec) }

// observed runs cfg on engine with a recorder attached.
func observed(cfg *Config, engine func(*Config) (*Result, error)) (execution, error) {
	var rec recorder
	c := *cfg
	c.Observer = rec.observe
	res, err := engine(&c)
	return execution{res, rec.rounds}, err
}

// diffResults compares two executions bit for bit, round records included.
func diffResults(a, b execution) error {
	if a.Success != b.Success || a.FirstFailed != b.FirstFailed ||
		a.CompletedRound != b.CompletedRound || a.Stats != b.Stats {
		return fmt.Errorf("result headers diverge: %+v vs %+v", a.Stats, b.Stats)
	}
	if len(a.Outputs) != len(b.Outputs) || len(a.InformedRound) != len(b.InformedRound) {
		return fmt.Errorf("result shapes diverge")
	}
	for id := range a.Outputs {
		if !bytes.Equal(a.Outputs[id], b.Outputs[id]) {
			return fmt.Errorf("output of node %d diverges: %q vs %q", id, a.Outputs[id], b.Outputs[id])
		}
	}
	for id := range a.InformedRound {
		if a.InformedRound[id] != b.InformedRound[id] {
			return fmt.Errorf("informed round of node %d diverges: %d vs %d", id, a.InformedRound[id], b.InformedRound[id])
		}
	}
	if len(a.rounds) != len(b.rounds) {
		return fmt.Errorf("record counts diverge: %d vs %d", len(a.rounds), len(b.rounds))
	}
	for r := range a.rounds {
		ra, rb := a.rounds[r], b.rounds[r]
		if ra.Collisions != rb.Collisions {
			return fmt.Errorf("round %d collisions diverge: %d vs %d", r, ra.Collisions, rb.Collisions)
		}
		if fmt.Sprint(ra.Faulty) != fmt.Sprint(rb.Faulty) {
			return fmt.Errorf("round %d fault sets diverge: %v vs %v", r, ra.Faulty, rb.Faulty)
		}
		if fmt.Sprint(ra.Actual) != fmt.Sprint(rb.Actual) {
			return fmt.Errorf("round %d transmissions diverge", r)
		}
		if fmt.Sprint(ra.Delivered) != fmt.Sprint(rb.Delivered) {
			return fmt.Errorf("round %d deliveries diverge", r)
		}
	}
	return nil
}

const diffCases = 200

// TestDifferentialBitsetVsScalar: for every generated configuration the
// production bitset core and the scalar reference core (scalar_test.go)
// produce bit-identical executions.
func TestDifferentialBitsetVsScalar(t *testing.T) {
	for i := 0; i < diffCases; i++ {
		c := genCase(i)

		got, err := observed(c.cfg, Run)
		if err != nil {
			t.Fatalf("%s: bitset core: %v", c.desc, err)
		}
		want, err := observed(c.cfg, RunScalar)
		if err != nil {
			t.Fatalf("%s: scalar core: %v", c.desc, err)
		}

		if err := diffResults(got, want); err != nil {
			t.Fatalf("%s: bitset vs scalar: %v", c.desc, err)
		}
	}
}

// TestDifferentialSequentialVsConcurrent: for every generated configuration
// the sequential engine and the goroutine-per-node reference engine
// (concurrent_test.go) produce bit-identical executions (both riding the
// bitset core).
func TestDifferentialSequentialVsConcurrent(t *testing.T) {
	for i := 0; i < diffCases; i++ {
		c := genCase(i)

		seq, err := observed(c.cfg, Run)
		if err != nil {
			t.Fatalf("%s: sequential: %v", c.desc, err)
		}
		conc, err := observed(c.cfg, RunConcurrent)
		if err != nil {
			t.Fatalf("%s: concurrent: %v", c.desc, err)
		}
		if err := diffResults(seq, conc); err != nil {
			t.Fatalf("%s: sequential vs concurrent: %v", c.desc, err)
		}
	}
}

// TestDifferentialRunnerReuse: streaming the generated configurations
// through one reused Runner per configuration stays bit-identical to fresh
// runs — the bitset scratch (masks, talker ids, limited-malicious slots)
// must not leak state between trials.
func TestDifferentialRunnerReuse(t *testing.T) {
	for i := 0; i < diffCases; i += 4 { // every 4th case, 3 seeds each
		c := genCase(i)
		var rec recorder
		reused := *c.cfg
		reused.Observer = rec.observe
		runner, err := NewRunner(&reused)
		if err != nil {
			t.Fatalf("%s: NewRunner: %v", c.desc, err)
		}
		for s := uint64(0); s < 3; s++ {
			seed := c.cfg.Seed + 1000*s
			rec.rounds = nil
			res, err := runner.Run(seed)
			if err != nil {
				t.Fatalf("%s: runner seed %d: %v", c.desc, seed, err)
			}
			got := execution{res, rec.rounds}
			fresh := *c.cfg
			fresh.Seed = seed
			want, err := observed(&fresh, Run)
			if err != nil {
				t.Fatalf("%s: fresh seed %d: %v", c.desc, seed, err)
			}
			if err := diffResults(got, want); err != nil {
				t.Fatalf("%s: runner vs fresh at seed %d: %v", c.desc, seed, err)
			}
		}
	}
}
