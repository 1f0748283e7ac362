package sim_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"faultcast/internal/adversary"
	"faultcast/internal/graph"
	"faultcast/internal/protocols/decay"
	"faultcast/internal/protocols/flooding"
	"faultcast/internal/protocols/radiorepeat"
	"faultcast/internal/protocols/simplemalicious"
	"faultcast/internal/protocols/twonode"
	"faultcast/internal/radio"
	"faultcast/internal/sim"
)

// Golden-trace regression tests: one fixed-seed run per experiment family,
// digested round by round (fault-set hash, delivery count, informed-set
// hash) and compared against committed files under testdata/golden/. Any
// change to the engine's RNG stream layout, fault semantics, delivery
// rules, or completion tracking shows up as a digest mismatch on the exact
// round where behaviour first diverged.
//
// Regenerate after an intentional semantic change with
//
//	go test ./internal/sim -run TestGoldenTraces -update

var updateGolden = flag.Bool("update", false, "rewrite the golden trace files")

// roundDigest is the committed per-round summary.
type roundDigest struct {
	Faulty     string `json:"faulty"`     // FNV-64a of the faulty id set
	Deliveries int    `json:"deliveries"` // messages handed to Deliver this round
	Informed   string `json:"informed"`   // FNV-64a of { v : InformedRound[v] <= round }
}

type goldenTrace struct {
	Family string        `json:"family"`
	Graph  string        `json:"graph"`
	Seed   uint64        `json:"seed"`
	Rounds []roundDigest `json:"rounds"`
}

func hashIDs(ids []int) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint32(buf[:], uint32(id))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestRun executes the configuration on engine (TrackCompletion forced
// on, and an Observer keeping every round record) and compresses the
// execution to per-round digests.
func digestRun(t *testing.T, family string, cfg *sim.Config, engine func(*sim.Config) (*sim.Result, error)) goldenTrace {
	t.Helper()
	c := *cfg
	c.TrackCompletion = true
	var rounds []*sim.RoundRecord
	c.Observer = func(rec *sim.RoundRecord) { rounds = append(rounds, rec) }
	res, err := engine(&c)
	if err != nil {
		t.Fatalf("%s: %v", family, err)
	}
	trace := goldenTrace{Family: family, Graph: cfg.Graph.String(), Seed: cfg.Seed}
	informed := make([]int, 0, cfg.Graph.N())
	for r, rec := range rounds {
		deliveries := 0
		for _, d := range rec.Delivered {
			deliveries += len(d)
		}
		informed = informed[:0]
		for v, ir := range res.InformedRound {
			if ir != -1 && ir <= r {
				informed = append(informed, v)
			}
		}
		trace.Rounds = append(trace.Rounds, roundDigest{
			Faulty:     hashIDs(rec.Faulty),
			Deliveries: deliveries,
			Informed:   hashIDs(informed),
		})
	}
	return trace
}

// goldenCase is one fixed-seed experiment family: the round-engine
// configuration plus, when the protocol has a lane lowering, the
// equivalent LaneSpec for the trial-parallel core.
type goldenCase struct {
	cfg   *sim.Config
	lanes *sim.LaneSpec
}

// goldenCases builds one representative fixed-seed configuration per
// experiment family (message passing and radio, each fault type, plus the
// randomized Decay baseline so the per-node RNG streams are covered).
func goldenCases(t *testing.T) map[string]goldenCase {
	t.Helper()
	cases := map[string]goldenCase{}
	laneSpec := func(cfg *sim.Config, corr sim.LaneCorruption, targets [][]int, newKernel func(symbols int) sim.LaneKernel) *sim.LaneSpec {
		return &sim.LaneSpec{
			Graph: cfg.Graph, Model: cfg.Model, Fault: cfg.Fault, P: cfg.P,
			Rounds: cfg.Rounds, Corruption: corr, Targets: targets, NewKernel: newKernel,
		}
	}

	g := graph.Grid(5, 5)
	fl := flooding.New(g, 0)
	cfg := &sim.Config{
		Graph: g, Model: sim.MessagePassing, Fault: sim.Omission, P: 0.3,
		Source: 0, SourceMsg: []byte("1"),
		NewNode: fl.NewNode, Rounds: fl.Rounds(6), Seed: 1,
	}
	cases["mp-omission-flooding"] = goldenCase{cfg, laneSpec(cfg, sim.LaneSilence, fl.LaneTargets(), fl.NewLaneKernel)}

	gt := graph.KaryTree(15, 2)
	sm := simplemalicious.New(gt, 0, sim.MessagePassing, 8)
	cfg = &sim.Config{
		Graph: gt, Model: sim.MessagePassing, Fault: sim.Malicious, P: 0.3,
		Source: 0, SourceMsg: []byte("1"),
		NewNode: sm.NewNode, Rounds: sm.Rounds(), Seed: 1,
		Adversary: adversary.Flip{Wrong: []byte("0")},
	}
	cases["mp-malicious-voting"] = goldenCase{cfg, laneSpec(cfg, sim.LaneFlip, sm.LaneTargets(), sm.NewLaneKernel)}

	k2 := graph.TwoNode()
	tn := twonode.New(32)
	cases["mp-limited-timing"] = goldenCase{cfg: &sim.Config{
		Graph: k2, Model: sim.MessagePassing, Fault: sim.LimitedMalicious, P: 0.5,
		Source: 0, SourceMsg: []byte("1"),
		NewNode: tn.NewNode, Rounds: tn.Rounds(), Seed: 1,
		Adversary: adversary.Crash{},
	}}

	gl := graph.Layered(3)
	rr, err := radiorepeat.New(gl, 0, radio.LayeredSchedule(3), radiorepeat.OmissionVariant, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg = &sim.Config{
		Graph: gl, Model: sim.Radio, Fault: sim.Omission, P: 0.3,
		Source: 0, SourceMsg: []byte("1"),
		NewNode: rr.NewNode, Rounds: rr.Rounds(), Seed: 1,
	}
	cases["radio-omission-repeat"] = goldenCase{cfg, laneSpec(cfg, sim.LaneSilence, nil, rr.NewLaneKernel)}

	gr := graph.Line(8)
	rm := simplemalicious.New(gr, 0, sim.Radio, 6)
	cfg = &sim.Config{
		Graph: gr, Model: sim.Radio, Fault: sim.Malicious, P: 0.1,
		Source: 0, SourceMsg: []byte("1"),
		NewNode: rm.NewNode, Rounds: rm.Rounds(), Seed: 1,
		Adversary: adversary.Flip{Wrong: []byte("0")},
	}
	cases["radio-malicious-voting"] = goldenCase{cfg, laneSpec(cfg, sim.LaneFlip, nil, rm.NewLaneKernel)}

	gd := graph.Grid(4, 4)
	dc := decay.New(gd)
	cases["radio-omission-decay"] = goldenCase{cfg: &sim.Config{
		Graph: gd, Model: sim.Radio, Fault: sim.Omission, P: 0.3,
		Source: 0, SourceMsg: []byte("1"),
		NewNode: dc.NewNode, Rounds: dc.Rounds(25), Seed: 1,
	}}

	return cases
}

func TestGoldenTraces(t *testing.T) {
	for family, gc := range goldenCases(t) {
		cfg := gc.cfg
		t.Run(family, func(t *testing.T) {
			got := digestRun(t, family, cfg, sim.Run)
			path := filepath.Join("testdata", "golden", family+".json")
			if *updateGolden {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d rounds)", path, len(got.Rounds))
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			var want goldenTrace
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("corrupt golden file %s: %v", path, err)
			}
			if got.Graph != want.Graph || got.Seed != want.Seed {
				t.Fatalf("scenario drifted: got %s/%d, golden %s/%d", got.Graph, got.Seed, want.Graph, want.Seed)
			}
			if len(got.Rounds) != len(want.Rounds) {
				t.Fatalf("round count %d, golden %d", len(got.Rounds), len(want.Rounds))
			}
			for r := range got.Rounds {
				if got.Rounds[r] != want.Rounds[r] {
					t.Fatalf("round %d digest diverged:\n  got    %+v\n  golden %+v", r, got.Rounds[r], want.Rounds[r])
				}
			}
		})
	}
}

// TestGoldenTracesCoreInvariant: the golden digests must be identical on
// the scalar reference core and on the goroutine-per-node reference
// engine — a second, protocol-level witness of the differential guarantee
// on real experiment workloads.
func TestGoldenTracesCoreInvariant(t *testing.T) {
	refs := []struct {
		name   string
		engine func(*sim.Config) (*sim.Result, error)
	}{{"scalar", sim.RunScalar}, {"concurrent", sim.RunConcurrent}}
	for family, gc := range goldenCases(t) {
		bit := digestRun(t, family, gc.cfg, sim.Run)
		for _, ref := range refs {
			got := digestRun(t, family, gc.cfg, ref.engine)
			if len(bit.Rounds) != len(got.Rounds) {
				t.Fatalf("%s: round counts diverge between bitset and %s", family, ref.name)
			}
			for r := range bit.Rounds {
				if bit.Rounds[r] != got.Rounds[r] {
					t.Fatalf("%s: round %d diverges:\n  bitset %+v\n  %s %+v",
						family, r, bit.Rounds[r], ref.name, got.Rounds[r])
				}
			}
		}
	}
}

// TestGoldenTracesLaneCore extends the core-invariance witness to the
// lane-transposed engine on the golden experiment families that have a
// lane lowering (the real protocol kernels, not the synthetic test ones):
// a 64-trial lane block over the golden seed must reproduce, bit for bit,
// the scalar reference engine's per-trial success verdicts.
func TestGoldenTracesLaneCore(t *testing.T) {
	covered := 0
	for family, gc := range goldenCases(t) {
		if gc.lanes == nil {
			continue
		}
		covered++
		lr, err := sim.NewLaneRunner(gc.lanes)
		if err != nil {
			t.Fatalf("%s: NewLaneRunner: %v", family, err)
		}
		runner, err := sim.NewScalarRunner(gc.cfg)
		if err != nil {
			t.Fatalf("%s: NewScalarRunner: %v", family, err)
		}
		got := lr.Run(gc.cfg.Seed, sim.LaneWidth)
		var want uint64
		for lane := 0; lane < sim.LaneWidth; lane++ {
			res, err := runner.Run(gc.cfg.Seed + uint64(lane))
			if err != nil {
				t.Fatalf("%s: scalar trial %d: %v", family, lane, err)
			}
			if res.Success {
				want |= 1 << uint(lane)
			}
		}
		if got != want {
			t.Fatalf("%s: lane verdicts %016x != scalar %016x (xor %016x)", family, got, want, got^want)
		}
	}
	if covered < 4 {
		t.Fatalf("only %d golden families carry a lane spec; expected 4", covered)
	}
}
