package faultcast

import (
	"fmt"
	"testing"
)

// TestLaneCoverageGate is the CI lane-coverage gate: every scenario shape
// the ported experiment tables (internal/harness E1–E8, A1/A2, B1) sweep
// over, plus the E5 star-adversary shape, must compile to the
// lane-transposed core under Compile's own choice. No shape is exempt:
// anything falling back to the round engine is a silent coverage
// regression and fails here.
func TestLaneCoverageGate(t *testing.T) {
	type shape struct {
		name string
		cfg  Config
	}
	var shapes []shape
	add := func(name string, cfg Config) {
		if len(cfg.Message) == 0 {
			cfg.Message = []byte("1")
		}
		shapes = append(shapes, shape{name, cfg})
	}

	// E1/A1 — Simple-Omission feasibility over both models.
	for _, model := range []Model{MessagePassing, Radio} {
		add(fmt.Sprintf("E1/simple-omission/%v", model), Config{
			Graph: Star(6), Source: 0, Model: model, Fault: Omission, P: 0.5,
			Algorithm: SimpleOmission, WindowC: 1,
		})
	}

	// E2 — Simple-Malicious, message passing, flip adversary.
	add("E2/simple-malicious/mp/flip", Config{
		Graph: KaryTree(2, 7), Source: 0, Model: MessagePassing, Fault: Malicious, P: 0.3,
		Algorithm: SimpleMalicious, Adversary: FlipAdv, WindowC: 2,
	})

	// E3 — Simple-Malicious under the radio model.
	add("E3/simple-malicious/radio/flip", Config{
		Graph: Layered(3), Source: 0, Model: Radio, Fault: Malicious, P: 0.2,
		Algorithm: SimpleMalicious, Adversary: FlipAdv, WindowC: 2,
	})

	// E5 — Theorem 2.4's impossibility: the star adversary at p*(Δ),
	// source at a leaf.
	add("E5/simple-malicious/radio/star", Config{
		Graph: Star(6), Source: 1, Model: Radio, Fault: Malicious, P: RadioThreshold(Star(6).MaxDegree()),
		Algorithm: SimpleMalicious, Adversary: WorstCase, WindowC: 8,
	})

	// E4/E5 — the timing-bit protocol, both source bits.
	for _, bit := range []string{"0", "1"} {
		add("E4/timing-bit/"+bit, Config{
			Graph: Complete(2), Source: 0, Message: []byte(bit),
			Model: MessagePassing, Fault: LimitedMalicious, P: 0.4,
			Algorithm: TimingBit, Adversary: CrashAdv, WindowC: 8,
		})
	}

	// E8 — the composed algorithm under limited-malicious faults.
	add("E8/composed/limited/flip", Config{
		Graph: KaryTree(2, 7), Source: 0, Model: MessagePassing, Fault: LimitedMalicious, P: 0.2,
		Algorithm: Composed, Adversary: FlipAdv,
	})

	// A2 — the adversary ablation: every adversary kind on the same
	// bit-message malicious scenario (worst-case on a bit message over
	// message passing is the source-only equivocator).
	for _, adv := range []AdversaryKind{WorstCase, CrashAdv, FlipAdv, NoiseAdv} {
		add(fmt.Sprintf("A2/simple-malicious/%v", adv), Config{
			Graph: Line(8), Source: 0, Model: MessagePassing, Fault: Malicious, P: 0.3,
			Algorithm: SimpleMalicious, Adversary: adv, WindowC: 2,
		})
		// The same ablation under the radio model.
		add(fmt.Sprintf("A2/simple-malicious/radio/%v", adv), Config{
			Graph: Star(6), Source: 1, Model: Radio, Fault: Malicious, P: 0.25,
			Algorithm: SimpleMalicious, Adversary: adv, WindowC: 2,
		})
	}

	// B1 — the omission-radio repeat protocol.
	add("B1/radio-repeat/omission", Config{
		Graph: Layered(4), Source: 0, Model: Radio, Fault: Omission, P: 0.5,
		Algorithm: RadioRepeat, WindowC: 1,
	})

	// Flooding rides along in several tables as the omission baseline.
	add("baseline/flooding/omission", Config{
		Graph: Grid(3, 4), Source: 0, Model: MessagePassing, Fault: Omission, P: 0.3,
		Algorithm: Flooding,
	})

	for _, s := range shapes {
		plan, err := Compile(s.cfg)
		if err != nil {
			t.Fatalf("%s: compile: %v", s.name, err)
		}
		if core := plan.EstimationCore(); core != "lanes" {
			t.Errorf("%s: Compile selected %q, want the lane core", s.name, core)
		}
	}
}

// TestLaneCoverageHeldShape pins the one shape Compile keeps on the
// round core although it has a lane lowering (heldOnRoundCore): the star
// adversary on a star graph whose hub is the source. A plan forced onto
// lanes still runs it there, and the neighbouring shapes (the source at a leaf,
// omission on the same graph, the star adversary on a line) are not held.
func TestLaneCoverageHeldShape(t *testing.T) {
	star := Config{
		Graph: Star(4), Source: 0, Message: []byte("1"),
		Model: Radio, Fault: Malicious, P: 0.1, WindowC: 4, Adversary: WorstCase,
	}
	leaf, omission, line := star, star, star
	leaf.Source = 1
	omission.Fault = Omission
	line.Graph = Line(8)
	cases := []struct {
		name string
		cfg  Config
		core string // the core the plan is compiled on
		want string
	}{
		{"hub source", star, "auto", "bitset"},
		{"hub source, forced onto lanes", star, "lanes", "lanes"},
		{"leaf source", leaf, "auto", "lanes"},
		{"omission", omission, "auto", "lanes"},
		{"line", line, "auto", "lanes"},
	}
	for _, tc := range cases {
		plan, err := compileOn(tc.cfg, tc.core)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := plan.EstimationCore(); got != tc.want {
			t.Errorf("%s: estimation core %q, want %q", tc.name, got, tc.want)
		}
	}
}
