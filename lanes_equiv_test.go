package faultcast

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// laneScenarios enumerates one configuration per (algorithm × model ×
// fault × adversary) combination that has a lane lowering. Every entry
// must produce per-trial verdicts, estimates, stop decisions, and shard
// tallies bit-identical to the bitset core.
func laneScenarios() map[string]Config {
	msg := []byte("hi") // non-bit so WorstCase lowers to Flip
	return map[string]Config{
		"flooding/omission": {
			Graph: Grid(3, 4), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Omission, P: 0.35,
			Algorithm: Flooding,
		},
		"flooding/malicious/crash": {
			Graph: Line(9), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Malicious, P: 0.3,
			Algorithm: Flooding, Adversary: CrashAdv,
		},
		"flooding/malicious/flip": {
			Graph: KaryTree(2, 10), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Malicious, P: 0.3,
			Algorithm: Flooding, Adversary: FlipAdv,
		},
		"flooding/limited/worst-nonbit": {
			Graph: Line(8), Source: 0, Message: msg,
			Model: MessagePassing, Fault: LimitedMalicious, P: 0.25,
			Algorithm: Flooding, Adversary: WorstCase,
		},
		"simple-omission/mp": {
			Graph: Line(7), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Omission, P: 0.45, WindowC: 1,
			Algorithm: SimpleOmission,
		},
		"simple-omission/radio": {
			Graph: Star(6), Source: 1, Message: []byte("1"),
			Model: Radio, Fault: Omission, P: 0.5, WindowC: 1,
			Algorithm: SimpleOmission,
		},
		"simple-omission/malicious/crash": {
			Graph: Ring(8), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Malicious, P: 0.3, WindowC: 1,
			Algorithm: SimpleOmission, Adversary: CrashAdv,
		},
		"simple-malicious/mp/flip": {
			Graph: Line(6), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Malicious, P: 0.35, WindowC: 2,
			Algorithm: SimpleMalicious, Adversary: FlipAdv,
		},
		"simple-malicious/mp/crash": {
			Graph: KaryTree(2, 9), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Malicious, P: 0.4, WindowC: 2,
			Algorithm: SimpleMalicious, Adversary: CrashAdv,
		},
		"simple-malicious/mp/worst-nonbit": {
			Graph: Grid(2, 4), Source: 0, Message: msg,
			Model: MessagePassing, Fault: Malicious, P: 0.3, WindowC: 2,
			Algorithm: SimpleMalicious, Adversary: WorstCase,
		},
		"simple-malicious/radio/flip": {
			Graph: Star(7), Source: 1, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: 0.25, WindowC: 2,
			Algorithm: SimpleMalicious, Adversary: FlipAdv,
		},
		"simple-malicious/limited/crash": {
			Graph: Line(6), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: LimitedMalicious, P: 0.3, WindowC: 2,
			Algorithm: SimpleMalicious, Adversary: CrashAdv,
		},
		"composed/limited/flip": {
			Graph: Line(9), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: LimitedMalicious, P: 0.2,
			Algorithm: Composed, Adversary: FlipAdv,
		},
		"composed/limited/crash": {
			Graph: KaryTree(2, 7), Source: 0, Message: msg,
			Model: MessagePassing, Fault: LimitedMalicious, P: 0.15,
			Algorithm: Composed, Adversary: CrashAdv,
		},
		"radio-repeat/omission": {
			Graph: Layered(3), Source: 0, Message: []byte("1"),
			Model: Radio, Fault: Omission, P: 0.4, WindowC: 1,
			Algorithm: RadioRepeat,
		},
		"radio-repeat/malicious/flip": {
			Graph: Layered(3), Source: 0, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: 0.3, WindowC: 2,
			Algorithm: RadioRepeat, Adversary: FlipAdv,
		},
		"radio-repeat/malicious/crash": {
			Graph: Star(8), Source: 1, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: 0.35, WindowC: 2,
			Algorithm: RadioRepeat, Adversary: CrashAdv,
		},
		// Noise adversary: two symbols when the message is "1" (the noise
		// alphabet {"0","1"} is {default, M}), three when it is not.
		"flooding/malicious/noise-bit": {
			Graph: KaryTree(2, 10), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Malicious, P: 0.3,
			Algorithm: Flooding, Adversary: NoiseAdv,
		},
		"flooding/limited/noise-3sym": {
			Graph: Grid(3, 3), Source: 0, Message: msg,
			Model: MessagePassing, Fault: LimitedMalicious, P: 0.4,
			Algorithm: Flooding, Adversary: NoiseAdv,
		},
		"simple-malicious/mp/noise-3sym": {
			Graph: Line(7), Source: 0, Message: msg,
			Model: MessagePassing, Fault: Malicious, P: 0.35, WindowC: 2,
			Algorithm: SimpleMalicious, Adversary: NoiseAdv,
		},
		"simple-malicious/radio/noise-bit": {
			Graph: Star(7), Source: 1, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: 0.3, WindowC: 2,
			Algorithm: SimpleMalicious, Adversary: NoiseAdv,
		},
		"simple-omission/malicious/noise-bit": {
			Graph: Ring(8), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Malicious, P: 0.3, WindowC: 1,
			Algorithm: SimpleOmission, Adversary: NoiseAdv,
		},
		"radio-repeat/malicious/noise-3sym": {
			Graph: Layered(3), Source: 0, Message: msg,
			Model: Radio, Fault: Malicious, P: 0.3, WindowC: 2,
			Algorithm: RadioRepeat, Adversary: NoiseAdv,
		},
		// Worst-case on a bit message over message passing is the
		// source-only equivocator; P > 1/2 exercises its slowing draw.
		"simple-malicious/mp/equivocator": {
			Graph: KaryTree(2, 9), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Malicious, P: 0.35, WindowC: 2,
			Algorithm: SimpleMalicious, Adversary: WorstCase,
		},
		"simple-malicious/mp/equivocator-slow": {
			Graph: Line(6), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Malicious, P: 0.7, WindowC: 2,
			Algorithm: SimpleMalicious, Adversary: WorstCase,
		},
		"flooding/malicious/equivocator": {
			Graph: Grid(2, 4), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Malicious, P: 0.3,
			Algorithm: Flooding, Adversary: WorstCase,
		},
		"composed/limited/equivocator": {
			Graph: KaryTree(2, 7), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: LimitedMalicious, P: 0.2,
			Algorithm: Composed, Adversary: WorstCase,
		},
		// Worst-case on a bit message over radio is Theorem 2.4's star
		// adversary: S-step swaps and third-symbol jams, plus the slowing
		// draws above p*(Δ) — on perfbench's curve graphs (star:4 with the
		// source at the centre, line:8) and E5's star with the source at a
		// leaf, for both radio decoders.
		"radio-repeat/malicious/star-star4": {
			Graph: Star(4), Source: 0, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: 0.8 * RadioThreshold(3), WindowC: 4,
			Algorithm: RadioRepeat, Adversary: WorstCase,
		},
		"radio-repeat/malicious/star-line8-slow": {
			Graph: Line(8), Source: 0, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: 1.1 * RadioThreshold(2), WindowC: 4,
			Algorithm: RadioRepeat, Adversary: WorstCase,
		},
		"radio-repeat/malicious/star-e5-slow": {
			Graph: Star(6), Source: 1, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: 1.5 * RadioThreshold(5), WindowC: 4,
			Algorithm: RadioRepeat, Adversary: WorstCase,
		},
		"simple-malicious/radio/star-star4-slow": {
			Graph: Star(4), Source: 0, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: 1.1 * RadioThreshold(3), WindowC: 4,
			Algorithm: SimpleMalicious, Adversary: WorstCase,
		},
		"simple-malicious/radio/star-line8": {
			Graph: Line(8), Source: 0, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: 0.95 * RadioThreshold(2), WindowC: 4,
			Algorithm: SimpleMalicious, Adversary: WorstCase,
		},
		"simple-malicious/radio/star-e5": {
			Graph: Star(6), Source: 1, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: RadioThreshold(5), WindowC: 8,
			Algorithm: SimpleMalicious, Adversary: WorstCase,
		},
		// An out-of-range adversary kind runs the flip adversary on every
		// core, bit message or not.
		"simple-malicious/mp/unknown-kind-bit": {
			Graph: Line(6), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Malicious, P: 0.45, WindowC: 2,
			Algorithm: SimpleMalicious, Adversary: AdversaryKind(7),
		},
		// The timing protocol is content-free, so every payload-rewriting
		// adversary lowers to keep-the-targets corruption — including on
		// the message "0", where the content protocols are gated.
		"timing/omission/bit1": {
			Graph: Complete(2), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: Omission, P: 0.35, WindowC: 8,
			Algorithm: TimingBit,
		},
		"timing/limited/crash-bit1": {
			Graph: Complete(2), Source: 0, Message: []byte("1"),
			Model: MessagePassing, Fault: LimitedMalicious, P: 0.4, WindowC: 8,
			Algorithm: TimingBit, Adversary: CrashAdv,
		},
		"timing/limited/worst-bit0": {
			Graph: Complete(2), Source: 1, Message: []byte("0"),
			Model: MessagePassing, Fault: LimitedMalicious, P: 0.45, WindowC: 8,
			Algorithm: TimingBit, Adversary: WorstCase,
		},
		"timing/malicious/noise-bit0": {
			Graph: Complete(2), Source: 0, Message: []byte("0"),
			Model: MessagePassing, Fault: Malicious, P: 0.3, WindowC: 8,
			Algorithm: TimingBit, Adversary: NoiseAdv,
		},
		// Over radio the worst case is the star adversary even for the
		// content-free timing protocol: the receiver's jam is the one
		// out-of-turn transmission its decoder reads. Both bits, on both
		// sides of p*(1) ≈ 0.382.
		"timing/radio/star-bit1": {
			Graph: Complete(2), Source: 0, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: 0.25, WindowC: 8,
			Algorithm: TimingBit, Adversary: WorstCase,
		},
		"timing/radio/star-bit1-slow": {
			Graph: Complete(2), Source: 0, Message: []byte("1"),
			Model: Radio, Fault: Malicious, P: 0.5, WindowC: 8,
			Algorithm: TimingBit, Adversary: WorstCase,
		},
		"timing/radio/star-bit0": {
			Graph: Complete(2), Source: 1, Message: []byte("0"),
			Model: Radio, Fault: Malicious, P: 0.25, WindowC: 8,
			Algorithm: TimingBit, Adversary: WorstCase,
		},
		"timing/radio/star-bit0-slow": {
			Graph: Complete(2), Source: 1, Message: []byte("0"),
			Model: Radio, Fault: Malicious, P: 0.5, WindowC: 8,
			Algorithm: TimingBit, Adversary: WorstCase,
		},
	}
}

// TestLanesPerTrialIdentity pins the tentpole contract at per-trial
// granularity: a shard tally with batch 1 exposes every individual trial
// verdict, and the lane-transposed core must match the bitset core
// verdict for verdict — across full and partial lane blocks (70 trials =
// one full 64-wide block plus a 6-trial tail). The scalar reference is
// held to the same verdicts inside internal/sim.
func TestLanesPerTrialIdentity(t *testing.T) {
	const trials = 70
	for name, cfg := range laneScenarios() {
		lanes, err := compileOn(cfg, "lanes")
		if err != nil {
			t.Fatalf("%s: compile lanes: %v", name, err)
		}
		if lanes.EstimationCore() != "lanes" {
			t.Fatalf("%s: forced lane plan estimates on %s", name, lanes.EstimationCore())
		}
		bitset, err := compileOn(cfg, "bitset")
		if err != nil {
			t.Fatalf("%s: compile bitset: %v", name, err)
		}
		got := lanes.TallyShard(cfg.Seed+11, trials, 1, 4)
		want := bitset.TallyShard(cfg.Seed+11, trials, 1, 4)
		for i := 0; i < trials; i++ {
			if got.Successes[i] != want.Successes[i] {
				t.Fatalf("%s: trial %d: lanes=%d bitset=%d", name, i, got.Successes[i], want.Successes[i])
			}
		}
	}
}

// TestLanesEstimateIdentity pins the estimation surface: with an early
// stopping rule the executed trial count, the success count, and hence
// every stop decision must be identical across cores, and the cached-
// estimate refinement path (a tally store) must continue a bitset-core
// stream bit-identically on the lane core.
func TestLanesEstimateIdentity(t *testing.T) {
	for name, cfg := range laneScenarios() {
		lanes, err := compileOn(cfg, "lanes")
		if err != nil {
			t.Fatalf("%s: compile lanes: %v", name, err)
		}
		bitset, err := compileOn(cfg, "bitset")
		if err != nil {
			t.Fatalf("%s: compile bitset: %v", name, err)
		}
		opts := []EstimateOption{WithTarget(0.85), WithBaseSeed(cfg.Seed + 5)}
		got, err := lanes.Estimate(300, opts...)
		if err != nil {
			t.Fatalf("%s: lanes estimate: %v", name, err)
		}
		want, err := bitset.Estimate(300, opts...)
		if err != nil {
			t.Fatalf("%s: bitset estimate: %v", name, err)
		}
		if got.Trials != want.Trials || got.Succeeds != want.Succeeds {
			t.Fatalf("%s: estimate diverged: lanes %d/%d, bitset %d/%d",
				name, got.Succeeds, got.Trials, want.Succeeds, want.Trials)
		}

		// Refinement: top an 80-trial bitset estimate up to 200 on lanes;
		// the combined stream must equal a straight 200-trial run.
		st := &memTallyStore{}
		if _, err := bitset.Estimate(80, WithBaseSeed(cfg.Seed+5), WithTallyStore(st)); err != nil {
			t.Fatalf("%s: bitset prefix: %v", name, err)
		}
		stored := 0
		resumed, err := lanes.Estimate(200, WithBaseSeed(cfg.Seed+5), WithTallyStore(st),
			WithResumeReport(func(n int) { stored = n }))
		if err != nil {
			t.Fatalf("%s: lanes resume: %v", name, err)
		}
		if stored != 80 {
			t.Fatalf("%s: lanes resumed %d stored trials, want 80", name, stored)
		}
		full, err := bitset.Estimate(200, WithBaseSeed(cfg.Seed+5))
		if err != nil {
			t.Fatalf("%s: bitset full: %v", name, err)
		}
		if resumed.Trials != full.Trials || resumed.Succeeds != full.Succeeds {
			t.Fatalf("%s: refinement diverged: resumed %d/%d, full %d/%d",
				name, resumed.Succeeds, resumed.Trials, full.Succeeds, full.Trials)
		}
	}
}

// memTallyStore is the in-memory TallyStore the refinement test writes
// through: a map from (plan key, base seed, batch) to a contiguous bucket
// sequence, with the same append-at-end / supersede-from-boundary /
// never-shorten contract the disk store implements.
type memTallyStore struct {
	mu sync.Mutex
	m  map[string][]TallyBucket
}

func (s *memTallyStore) streamKey(planKey string, baseSeed uint64, batch int) string {
	return fmt.Sprintf("%s|%d|%d", planKey, baseSeed, batch)
}

func (s *memTallyStore) LoadTally(planKey string, baseSeed uint64, batch int) ([]TallyBucket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]TallyBucket(nil), s.m[s.streamKey(planKey, baseSeed, batch)]...), nil
}

func (s *memTallyStore) AppendTally(planKey string, baseSeed uint64, batch int, start int, buckets []TallyBucket) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string][]TallyBucket)
	}
	k := s.streamKey(planKey, baseSeed, batch)
	cur := s.m[k]
	pos, i := 0, 0
	for i < len(cur) && pos < start {
		pos += cur[i].Trials
		i++
	}
	if pos != start {
		return fmt.Errorf("append at trial %d does not land on a stored bucket boundary", start)
	}
	for _, b := range cur[i:] {
		pos -= b.Trials
	}
	for _, b := range buckets {
		pos += b.Trials
	}
	if pos < start {
		return ErrTallyShortens
	}
	s.m[k] = append(append([]TallyBucket(nil), cur[:i]...), buckets...)
	return nil
}

// TestLanesStoreBackedRefinementIdentity pins the durable-store path
// across cores: a bitset-core run persists a partial prefix, the lane
// core refines from that store to the full budget, and the result must be
// bit-identical to a cold full-budget bitset run.
func TestLanesStoreBackedRefinementIdentity(t *testing.T) {
	for name, cfg := range laneScenarios() {
		lanes, err := compileOn(cfg, "lanes")
		if err != nil {
			t.Fatalf("%s: compile lanes: %v", name, err)
		}
		bitset, err := compileOn(cfg, "bitset")
		if err != nil {
			t.Fatalf("%s: compile bitset: %v", name, err)
		}
		opts := []EstimateOption{WithBaseSeed(cfg.Seed + 3)}
		cold, err := bitset.Estimate(200, opts...)
		if err != nil {
			t.Fatalf("%s: cold bitset: %v", name, err)
		}
		st := &memTallyStore{}
		if _, err := bitset.Estimate(90, WithBaseSeed(cfg.Seed+3), WithTallyStore(st)); err != nil {
			t.Fatalf("%s: bitset store prefix: %v", name, err)
		}
		var resumed int
		got, err := lanes.Estimate(200, WithBaseSeed(cfg.Seed+3), WithTallyStore(st),
			WithResumeReport(func(n int) { resumed = n }))
		if err != nil {
			t.Fatalf("%s: lanes store refine: %v", name, err)
		}
		if !reflect.DeepEqual(got, cold) {
			t.Fatalf("%s: store-backed lane refinement diverged: %+v != cold %+v", name, got, cold)
		}
		if resumed < 32 {
			t.Fatalf("%s: lane refinement resumed only %d stored trials", name, resumed)
		}
	}
}

// TestLanesShardTallyIdentity pins the cluster shard protocol: per-batch
// tallies (the wire unit coordinators merge and replay) must be identical
// whichever core computes them, including blocks straddling bucket
// boundaries (batch 48 vs block width 64).
func TestLanesShardTallyIdentity(t *testing.T) {
	for name, cfg := range laneScenarios() {
		lanes, err := compileOn(cfg, "lanes")
		if err != nil {
			t.Fatalf("%s: compile lanes: %v", name, err)
		}
		bitset, err := compileOn(cfg, "bitset")
		if err != nil {
			t.Fatalf("%s: compile bitset: %v", name, err)
		}
		got := lanes.TallyShard(cfg.Seed+101, 150, 48, 3)
		want := bitset.TallyShard(cfg.Seed+101, 150, 48, 3)
		if got.Trials != want.Trials || got.Batch != want.Batch || len(got.Successes) != len(want.Successes) {
			t.Fatalf("%s: tally shape diverged: %+v vs %+v", name, got, want)
		}
		for i := range got.Successes {
			if got.Successes[i] != want.Successes[i] {
				t.Fatalf("%s: bucket %d: lanes=%d bitset=%d", name, i, got.Successes[i], want.Successes[i])
			}
		}
	}
}

// TestCoreLanesUnsupported pins the shapes that remain outside the lane
// lowering: each has no lane lowering to force, and Compile falls back to
// the round engine for it — except a shape no engine can run, which
// Compile rejects with an error naming it.
func TestCoreLanesUnsupported(t *testing.T) {
	base := Config{
		Graph: Line(6), Source: 0, Message: []byte("1"),
		Model: MessagePassing, Fault: Malicious, P: 0.3,
		Algorithm: SimpleMalicious,
	}
	cases := map[string]struct {
		cfg      Config
		want     string // the Compile error of a rejected shape
		rejected bool   // no core runs it: Compile fails
	}{
		"default message": {
			cfg: func() Config { c := base; c.Message = []byte("0"); c.Adversary = CrashAdv; return c }(),
		},
		"limited-malicious radio star": {
			cfg: Config{
				Graph: Layered(3), Source: 0, Message: []byte("1"),
				Model: Radio, Fault: LimitedMalicious, P: 0.3, WindowC: 2,
				Algorithm: RadioRepeat, Adversary: WorstCase,
			},
			want:     "limited-malicious faults cannot",
			rejected: true,
		},
	}
	for name, tc := range cases {
		if _, err := compileOn(tc.cfg, "lanes"); err == nil {
			t.Errorf("%s: forced onto lanes, but the scenario has no lane lowering", name)
		}
		plan, err := Compile(tc.cfg)
		if tc.rejected {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: Compile error %v, want one naming %q", name, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: Compile: %v", name, err)
		}
		if core := plan.EstimationCore(); core != "bitset" {
			t.Errorf("%s: Compile picked %s, want the round engine", name, core)
		}
	}
}

// TestCoreLanesErrorNamesFeature walks every gated shape, table-driven:
// a content protocol broadcasting the default message has no lane
// lowering (the one gate buildLaneSpec keeps) and estimates on the round
// engine, and the shape Compile rejects outright gets an error naming
// the unsupported feature.
func TestCoreLanesErrorNamesFeature(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // "" = a gated shape that compiles onto bitset
	}{
		{
			name: "flooding default message",
			cfg: Config{
				Graph: Line(5), Source: 0, Message: []byte("0"),
				Model: MessagePassing, Fault: Omission, P: 0.3,
				Algorithm: Flooding,
			},
		},
		{
			name: "simple-omission default message",
			cfg: Config{
				Graph: Line(5), Source: 0, Message: []byte("0"),
				Model: MessagePassing, Fault: Omission, P: 0.3, WindowC: 1,
				Algorithm: SimpleOmission,
			},
		},
		{
			name: "composed default message",
			cfg: Config{
				Graph: Line(5), Source: 0, Message: []byte("0"),
				Model: MessagePassing, Fault: LimitedMalicious, P: 0.2,
				Algorithm: Composed, Adversary: CrashAdv,
			},
		},
		{
			name: "limited-malicious radio worst-case star",
			cfg: Config{
				Graph: Star(6), Source: 1, Message: []byte("1"),
				Model: Radio, Fault: LimitedMalicious, P: 0.3, WindowC: 2,
				Algorithm: SimpleMalicious, Adversary: WorstCase,
			},
			want: "jams out of turn",
		},
	}
	for _, tc := range cases {
		if _, lanes, _ := build(tc.cfg); lanes != nil {
			t.Errorf("%s: the gated shape has a lane lowering", tc.name)
		}
		plan, err := Compile(tc.cfg)
		if tc.want != "" {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: Compile error %v does not contain %q", tc.name, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if core := plan.EstimationCore(); core != "bitset" {
			t.Errorf("%s: estimates on %s, want bitset", tc.name, core)
		}
	}
}

// TestCoreExcludedFromFingerprint pins the cache-key contract: the engine
// a plan estimates on cannot change a result, so plans of one scenario
// forced onto either core share one key.
func TestCoreExcludedFromFingerprint(t *testing.T) {
	cfg := laneScenarios()["composed/limited/flip"]
	auto, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range []string{"bitset", "lanes"} {
		plan, err := compileOn(cfg, core)
		if err != nil {
			t.Fatalf("%s: %v", core, err)
		}
		if plan.Key() != cfg.Fingerprint() || plan.StoreKey() != auto.StoreKey() {
			t.Fatalf("the %s plan changed the key", core)
		}
	}
	if !strings.Contains(cfg.CanonicalString(), "algo:") {
		t.Fatal("canonical string lost its shape")
	}
}
