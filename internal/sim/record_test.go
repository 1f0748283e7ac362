package sim

import (
	"bytes"
	"slices"
	"testing"

	"faultcast/internal/graph"
)

// TestHistoryRequiresOptIn: per-round records exist only for an
// Observer, and observing is passive: the same run with and without one
// returns the same result, and its adversary sees the same rounds.
func TestHistoryRequiresOptIn(t *testing.T) {
	run := func(observer func(*RoundRecord)) (*Result, []int) {
		var seen []int
		cfg := &Config{
			Graph: graph.TwoNode(), Model: MessagePassing, Fault: Malicious, P: 0.5,
			Source: 0, SourceMsg: []byte("m"),
			NewNode: func(id int) Node { return &floodNode{} },
			Rounds:  30, Seed: 3,
			Adversary: adversaryFunc(func(e *Exec, faulty []int) map[int][]Transmission {
				seen = append(seen, e.Round)
				return nil
			}),
			Observer: observer,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, seen
	}
	bare, bareSeen := run(nil)
	var rec recorder
	watched, watchedSeen := run(rec.observe)
	if len(bareSeen) == 0 {
		t.Fatal("adversary never ran at p=0.5 over 30 rounds")
	}
	if !resultsEqual(bare, watched) || !slices.Equal(bareSeen, watchedSeen) {
		t.Fatal("attaching an observer changed the run")
	}
	if len(rec.rounds) != 30 {
		t.Fatalf("observer kept %d records, want 30", len(rec.rounds))
	}
}

// adversaryFunc adapts a closure to the Adversary interface.
type adversaryFunc func(e *Exec, faulty []int) map[int][]Transmission

func (f adversaryFunc) Corrupt(e *Exec, faulty []int) map[int][]Transmission {
	return f(e, faulty)
}

func TestInformedRoundTracking(t *testing.T) {
	g := graph.Line(5)
	cfg := floodConfig(g, 10)
	cfg.TrackCompletion = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InformedRound) != 5 {
		t.Fatalf("InformedRound has %d entries", len(res.InformedRound))
	}
	// Fault-free flood on a line: node i informed at the end of round i-1;
	// the source counts as informed at round 0 (the first tracked scan).
	for v := 1; v < 5; v++ {
		if res.InformedRound[v] != v-1 {
			t.Fatalf("node %d informed at round %d, want %d", v, res.InformedRound[v], v-1)
		}
	}
	if res.InformedRound[0] != 0 {
		t.Fatalf("source informed-round = %d, want 0", res.InformedRound[0])
	}
}

func TestInformedRoundNilWithoutTracking(t *testing.T) {
	g := graph.Line(3)
	res, err := Run(floodConfig(g, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.InformedRound != nil {
		t.Fatal("InformedRound populated without TrackCompletion")
	}
}

func TestHistoryFaultCount(t *testing.T) {
	g := graph.TwoNode()
	cfg := floodConfig(g, 100)
	cfg.Fault = Omission
	cfg.P = 0.5
	res, err := observed(cfg, Run)
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	for _, rec := range res.rounds {
		faults += len(rec.Faulty)
	}
	if faults != res.Stats.Faults {
		t.Fatalf("recorded fault count %d != stats %d", faults, res.Stats.Faults)
	}
	if res.Stats.Faults < 60 || res.Stats.Faults > 140 {
		t.Fatalf("fault count %d implausible for 2 nodes x 100 rounds at p=0.5", res.Stats.Faults)
	}
}

func TestOutputsMatchSuccess(t *testing.T) {
	g := graph.Line(4)
	res, err := Run(floodConfig(g, 6))
	if err != nil {
		t.Fatal(err)
	}
	for id, out := range res.Outputs {
		if !bytes.Equal(out, []byte("M")) {
			t.Fatalf("node %d output %q", id, out)
		}
	}
}
