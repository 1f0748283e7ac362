package sim

import (
	"bytes"
	"testing"

	"faultcast/internal/graph"
)

// runnerNode is a minimal flooding-style protocol for runner tests: it
// rebroadcasts the first payload it holds every round.
type runnerNode struct {
	env *Env
	msg []byte
}

func (n *runnerNode) Init(env *Env) {
	n.env = env
	n.msg = nil
	if env.IsSource() {
		n.msg = env.SourceMsg
	}
}

func (n *runnerNode) Transmit(round int) []Transmission {
	if n.msg == nil {
		return nil
	}
	return []Transmission{{To: Broadcast, Payload: n.msg}}
}

func (n *runnerNode) Deliver(round, from int, payload []byte) {
	if n.msg == nil {
		n.msg = append([]byte(nil), payload...)
	}
}

func (n *runnerNode) Output() []byte { return n.msg }

func runnerConfig(model Model) *Config {
	return &Config{
		Graph: graph.Grid(4, 4), Model: model, Fault: Omission, P: 0.4,
		Source: 0, SourceMsg: []byte("m"),
		NewNode:         func(int) Node { return &runnerNode{} },
		Rounds:          40,
		TrackCompletion: true,
	}
}

func resultsEqual(a, b *Result) bool {
	if a.Success != b.Success || a.FirstFailed != b.FirstFailed ||
		a.CompletedRound != b.CompletedRound || a.Stats != b.Stats {
		return false
	}
	if len(a.InformedRound) != len(b.InformedRound) {
		return false
	}
	for i := range a.InformedRound {
		if a.InformedRound[i] != b.InformedRound[i] {
			return false
		}
	}
	if len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for i := range a.Outputs {
		if !bytes.Equal(a.Outputs[i], b.Outputs[i]) {
			return false
		}
	}
	return true
}

// TestRunnerMatchesRun: a reused runner must be bit-identical to a fresh
// Run for every seed, in both models, including stats, outputs, and
// per-node informing rounds.
func TestRunnerMatchesRun(t *testing.T) {
	for _, model := range []Model{MessagePassing, Radio} {
		cfg := runnerConfig(model)
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 20; seed++ {
			got, err := r.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			c := *cfg
			c.Seed = seed
			want, err := Run(&c)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) {
				t.Fatalf("%v seed %d: runner %+v != fresh %+v", model, seed, got, want)
			}
		}
	}
}

// TestRunnerResultsDoNotAlias: a Result returned by one trial must stay
// intact after later trials mutate the reused state.
func TestRunnerResultsDoNotAlias(t *testing.T) {
	cfg := runnerConfig(MessagePassing)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]int(nil), first.InformedRound...)
	outputs := make([][]byte, len(first.Outputs))
	for i, o := range first.Outputs {
		outputs[i] = append([]byte(nil), o...)
	}
	for seed := uint64(2); seed < 12; seed++ {
		if _, err := r.Run(seed); err != nil {
			t.Fatal(err)
		}
	}
	for i := range snapshot {
		if first.InformedRound[i] != snapshot[i] {
			t.Fatalf("InformedRound[%d] mutated by later trials", i)
		}
	}
	for i := range outputs {
		if !bytes.Equal(first.Outputs[i], outputs[i]) {
			t.Fatalf("Outputs[%d] mutated by later trials", i)
		}
	}
}

// TestRunnerHistoryFresh: on a reused Runner, each trial's observer
// stream must restart at round 0 and cover exactly the horizon, not
// continue the previous trial's.
func TestRunnerHistoryFresh(t *testing.T) {
	cfg := runnerConfig(MessagePassing)
	var rec recorder
	cfg.Observer = rec.observe
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 2; seed++ {
		rec.rounds = nil
		if _, err := r.Run(seed); err != nil {
			t.Fatal(err)
		}
		if len(rec.rounds) != cfg.Rounds {
			t.Fatalf("seed %d: observer saw %d rounds, want %d", seed, len(rec.rounds), cfg.Rounds)
		}
		for i, rr := range rec.rounds {
			if rr.Round != i {
				t.Fatalf("seed %d: record %d is round %d", seed, i, rr.Round)
			}
		}
	}
}
