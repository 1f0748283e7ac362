package sim

import (
	"bytes"
	"testing"
	"testing/quick"

	"faultcast/internal/graph"
	"faultcast/internal/rng"
)

// relayNode is a radio test protocol: once informed, transmit in the slots
// t ≡ id (mod n) — a TDMA relay that exercises the collision rule under
// every fault type without ever being trivially silent.
type relayNode struct {
	env *Env
	msg []byte
}

func (r *relayNode) Init(env *Env) {
	r.env = env
	if env.IsSource() {
		r.msg = env.SourceMsg
	}
}

func (r *relayNode) Transmit(round int) []Transmission {
	if r.msg == nil || round%r.env.N != r.env.ID {
		return nil
	}
	return []Transmission{{To: Broadcast, Payload: r.msg}}
}

func (r *relayNode) Deliver(round, from int, payload []byte) {
	if r.msg == nil {
		r.msg = append([]byte(nil), payload...)
	}
}

func (r *relayNode) Output() []byte { return r.msg }

// TestEnginesEquivalentRadio is the radio-model counterpart of
// TestEnginesEquivalent: identical executions from both engines across
// random topologies, fault types, and rates — including collision
// accounting.
func TestEnginesEquivalentRadio(t *testing.T) {
	check := func(seed uint32, pRaw uint8, faultRaw uint8) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(20)
		g := graph.GNP(n, 0.2, r)
		fault := []FaultType{NoFaults, Omission, Malicious, LimitedMalicious}[int(faultRaw)%4]
		cfg := &Config{
			Graph: g, Model: Radio, Fault: fault,
			P:      float64(pRaw%90) / 100,
			Source: r.Intn(n), SourceMsg: []byte("radio"),
			NewNode: func(id int) Node { return &relayNode{} },
			Rounds:  3 * n, Seed: uint64(seed)*17 + 3,
		}
		if fault == Malicious {
			cfg.Adversary = outOfTurnAdversary{}
		}
		if fault == LimitedMalicious {
			cfg.Adversary = flipAdversary{}
		}
		a, err := observed(cfg, Run)
		if err != nil {
			t.Logf("seq: %v", err)
			return false
		}
		b, err := observed(cfg, RunConcurrent)
		if err != nil {
			t.Logf("conc: %v", err)
			return false
		}
		if a.Success != b.Success || a.Stats != b.Stats {
			t.Logf("stats diverge: %+v vs %+v", a.Stats, b.Stats)
			return false
		}
		for id := range a.Outputs {
			if !bytes.Equal(a.Outputs[id], b.Outputs[id]) {
				return false
			}
		}
		for r := range a.rounds {
			if a.rounds[r].Collisions != b.rounds[r].Collisions {
				t.Logf("round %d collisions diverge", r)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRadioOutOfTurnCausesCollisions: a malicious adversary that makes
// every faulty node shout must produce collisions on dense graphs —
// the "speak out of turn" capability in action.
func TestRadioOutOfTurnCausesCollisions(t *testing.T) {
	g := graph.Complete(8)
	cfg := &Config{
		Graph: g, Model: Radio, Fault: Malicious, P: 0.5,
		Source: 0, SourceMsg: []byte("x"),
		NewNode: func(id int) Node { return &relayNode{} },
		Rounds:  200, Seed: 9,
		Adversary: outOfTurnAdversary{},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Collisions == 0 {
		t.Fatal("out-of-turn shouting on K8 produced no collisions")
	}
}
