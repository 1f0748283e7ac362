package sim

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"faultcast/internal/graph"
	"faultcast/internal/rng"
)

// floodNode is a minimal message-passing protocol used by engine tests:
// the source knows the message from the start; every node that knows it
// broadcasts it to all neighbors every round.
type floodNode struct {
	env *Env
	msg []byte
	// genuine makes an uninformed node skip default ("0") payloads and
	// adopt the first other one, like Omission-Radio's reception rule.
	genuine bool
}

func (f *floodNode) Init(env *Env) {
	f.env = env
	if env.IsSource() {
		f.msg = env.SourceMsg
	}
}

func (f *floodNode) Transmit(round int) []Transmission {
	if f.msg == nil {
		return nil
	}
	return []Transmission{{To: Broadcast, Payload: f.msg}}
}

func (f *floodNode) Deliver(round, from int, payload []byte) {
	if f.msg == nil && !(f.genuine && string(payload) == "0") {
		f.msg = append([]byte(nil), payload...)
	}
}

func (f *floodNode) Output() []byte { return f.msg }

// scheduleNode transmits its payload exactly in the rounds listed in its
// schedule — a deterministic radio test fixture.
type scheduleNode struct {
	env     *Env
	rounds  map[int][]byte
	heard   []Received
	output  []byte
	adopted bool
}

func (s *scheduleNode) Init(env *Env) {
	s.env = env
	if env.IsSource() {
		s.output = env.SourceMsg
	}
}

func (s *scheduleNode) Transmit(round int) []Transmission {
	if p, ok := s.rounds[round]; ok {
		return []Transmission{{To: Broadcast, Payload: p}}
	}
	return nil
}

func (s *scheduleNode) Deliver(round, from int, payload []byte) {
	s.heard = append(s.heard, Received{From: from, Payload: append([]byte(nil), payload...)})
	if !s.adopted {
		s.output = append([]byte(nil), payload...)
		s.adopted = true
	}
}

func (s *scheduleNode) Output() []byte { return s.output }

func floodConfig(g *graph.Graph, rounds int) *Config {
	return &Config{
		Graph:     g,
		Model:     MessagePassing,
		Fault:     NoFaults,
		Source:    0,
		SourceMsg: []byte("M"),
		NewNode:   func(id int) Node { return &floodNode{} },
		Rounds:    rounds,
		Seed:      1,
	}
}

func TestValidateErrors(t *testing.T) {
	g := graph.Line(3)
	base := func() *Config { return floodConfig(g, 5) }
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil graph", func(c *Config) { c.Graph = nil }},
		{"bad source", func(c *Config) { c.Source = 9 }},
		{"negative source", func(c *Config) { c.Source = -1 }},
		{"empty message", func(c *Config) { c.SourceMsg = nil }},
		{"nil factory", func(c *Config) { c.NewNode = nil }},
		{"negative rounds", func(c *Config) { c.Rounds = -1 }},
		{"bad model", func(c *Config) { c.Model = Model(9) }},
		{"bad fault", func(c *Config) { c.Fault = FaultType(9) }},
		{"p too big", func(c *Config) { c.Fault = Omission; c.P = 1.0 }},
		{"p negative", func(c *Config) { c.Fault = Omission; c.P = -0.1 }},
		{"malicious without adversary", func(c *Config) { c.Fault = Malicious; c.P = 0.1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatalf("expected validation error")
			}
		})
	}
}

func TestFaultFreeFloodSucceeds(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Line(10), graph.Star(8), graph.Grid(4, 5), graph.Hypercube(4)} {
		cfg := floodConfig(g, g.Radius(0)+1)
		cfg.TrackCompletion = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("%v: fault-free flood failed at node %d", g, res.FirstFailed)
		}
		if res.CompletedRound != g.Radius(0)-1 {
			// Flood informs distance-d nodes at the end of round d-1
			// (0-indexed): the source's round-0 broadcast reaches distance 1.
			t.Fatalf("%v: completed at round %d, want %d", g, res.CompletedRound, g.Radius(0)-1)
		}
	}
}

func TestFloodTooFewRoundsFails(t *testing.T) {
	g := graph.Line(10)
	res, err := Run(floodConfig(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Fatal("flood on line(10) cannot finish in 3 rounds")
	}
	if res.FirstFailed == -1 {
		t.Fatal("FirstFailed not set on failure")
	}
	if res.CompletedRound != -1 {
		t.Fatalf("CompletedRound = %d on failure, want -1", res.CompletedRound)
	}
}

func TestDirectedMessagePassing(t *testing.T) {
	// Node 0 sends distinct payloads to each neighbor in one round;
	// verify each neighbor receives exactly its own.
	g := graph.Star(4)
	type record struct{ got [][]byte }
	recs := make([]record, 4)
	cfg := &Config{
		Graph: g, Model: MessagePassing, Fault: NoFaults,
		Source: 0, SourceMsg: []byte("M"), Rounds: 1, Seed: 1,
		NewNode: func(id int) Node {
			return &funcNode{
				transmit: func(round int) []Transmission {
					if id != 0 {
						return nil
					}
					return []Transmission{
						{To: 1, Payload: []byte("a")},
						{To: 2, Payload: []byte("b")},
						{To: 3, Payload: []byte("c")},
					}
				},
				deliver: func(round, from int, payload []byte) {
					recs[id].got = append(recs[id].got, append([]byte(nil), payload...))
				},
				output: func() []byte { return []byte("M") },
			}
		},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	want := map[int]string{1: "a", 2: "b", 3: "c"}
	for id, w := range want {
		if len(recs[id].got) != 1 || string(recs[id].got[0]) != w {
			t.Fatalf("node %d received %q, want [%q]", id, recs[id].got, w)
		}
	}
	if len(recs[0].got) != 0 {
		t.Fatalf("sender received %q", recs[0].got)
	}
}

// funcNode adapts closures to the Node interface for tests.
type funcNode struct {
	transmit func(round int) []Transmission
	deliver  func(round, from int, payload []byte)
	output   func() []byte
}

func (f *funcNode) Init(*Env) {}
func (f *funcNode) Transmit(round int) []Transmission {
	if f.transmit == nil {
		return nil
	}
	return f.transmit(round)
}
func (f *funcNode) Deliver(round, from int, payload []byte) {
	if f.deliver != nil {
		f.deliver(round, from, payload)
	}
}
func (f *funcNode) Output() []byte {
	if f.output == nil {
		return nil
	}
	return f.output()
}

func TestRadioCollisionRule(t *testing.T) {
	// Path 1-0-2 plus 3 attached to 0: when 1 and 2 transmit in the same
	// round, 0 hears nothing (collision); 3 hears nothing (its only
	// neighbor 0 is silent). When only 1 transmits, 0 hears it.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	g := b.Build("claw")

	schedules := map[int]map[int][]byte{
		1: {0: []byte("x"), 1: []byte("x")},
		2: {0: []byte("y")},
	}
	nodes := make([]*scheduleNode, 4)
	cfg := &Config{
		Graph: g, Model: Radio, Fault: NoFaults,
		Source: 1, SourceMsg: []byte("x"), Rounds: 2, Seed: 1,
		NewNode: func(id int) Node {
			n := &scheduleNode{rounds: schedules[id]}
			nodes[id] = n
			return n
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes[0].heard) != 1 || string(nodes[0].heard[0].Payload) != "x" || nodes[0].heard[0].From != 1 {
		t.Fatalf("hub heard %v; want exactly round-1 x from node 1", nodes[0].heard)
	}
	if res.Stats.Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", res.Stats.Collisions)
	}
	if len(nodes[3].heard) != 0 {
		t.Fatalf("leaf 3 heard %v, want nothing", nodes[3].heard)
	}
}

func TestRadioTransmitterHearsNothing(t *testing.T) {
	// On K2, if both transmit simultaneously neither hears; if only node 0
	// transmits, node 1 hears.
	g := graph.TwoNode()
	nodes := make([]*scheduleNode, 2)
	schedules := map[int]map[int][]byte{
		0: {0: []byte("a"), 1: []byte("a")},
		1: {0: []byte("b")},
	}
	cfg := &Config{
		Graph: g, Model: Radio, Fault: NoFaults,
		Source: 0, SourceMsg: []byte("a"), Rounds: 2, Seed: 1,
		NewNode: func(id int) Node {
			n := &scheduleNode{rounds: schedules[id]}
			nodes[id] = n
			return n
		},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	// Round 0: both transmit -> nobody hears. Round 1: only 0 transmits ->
	// 1 hears "a".
	if len(nodes[0].heard) != 0 {
		t.Fatalf("node 0 heard %v, want nothing", nodes[0].heard)
	}
	if len(nodes[1].heard) != 1 || string(nodes[1].heard[0].Payload) != "a" {
		t.Fatalf("node 1 heard %v, want one 'a'", nodes[1].heard)
	}
}

func TestRadioRejectsDirectedAndMultiple(t *testing.T) {
	g := graph.TwoNode()
	mk := func(ts []Transmission) *Config {
		return &Config{
			Graph: g, Model: Radio, Fault: NoFaults,
			Source: 0, SourceMsg: []byte("m"), Rounds: 1, Seed: 1,
			NewNode: func(id int) Node {
				return &funcNode{transmit: func(int) []Transmission {
					if id == 0 {
						return ts
					}
					return nil
				}}
			},
		}
	}
	if _, err := Run(mk([]Transmission{{To: 1, Payload: []byte("x")}})); err == nil {
		t.Fatal("directed radio transmission accepted")
	}
	if _, err := Run(mk([]Transmission{
		{To: Broadcast, Payload: []byte("x")},
		{To: Broadcast, Payload: []byte("y")},
	})); err == nil {
		t.Fatal("double radio transmission accepted")
	}
}

func TestRejectsNilPayloadAndNonNeighbor(t *testing.T) {
	g := graph.Line(3)
	mk := func(ts []Transmission) *Config {
		return &Config{
			Graph: g, Model: MessagePassing, Fault: NoFaults,
			Source: 0, SourceMsg: []byte("m"), Rounds: 1, Seed: 1,
			NewNode: func(id int) Node {
				return &funcNode{transmit: func(int) []Transmission {
					if id == 0 {
						return ts
					}
					return nil
				}}
			},
		}
	}
	if _, err := Run(mk([]Transmission{{To: 1, Payload: nil}})); err == nil {
		t.Fatal("nil payload accepted")
	}
	if _, err := Run(mk([]Transmission{{To: 2, Payload: []byte("x")}})); err == nil {
		t.Fatal("non-neighbor target accepted")
	}
}

func TestOmissionFaultsSilence(t *testing.T) {
	// With p close to 1 on a 2-node graph, the source is usually silenced:
	// count deliveries over many rounds and compare to expectation.
	g := graph.TwoNode()
	cfg := &Config{
		Graph: g, Model: MessagePassing, Fault: Omission, P: 0.75,
		Source: 0, SourceMsg: []byte("m"), Rounds: 4000, Seed: 42,
		NewNode: func(id int) Node { return &floodNode{} },
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("with 4000 rounds at p=0.75 the flood should still succeed")
	}
	// Node 0 transmits every round; it is silenced with probability 0.75.
	// Node 1 starts transmitting after it first hears. Faults ~ Bin(2*4000-k, .75).
	if res.Stats.Faults < 4000 || res.Stats.Faults > 8000 {
		t.Fatalf("fault count %d implausible for p=0.75", res.Stats.Faults)
	}
	if res.Stats.Deliveries >= 2*4000 {
		t.Fatal("omission faults did not suppress any deliveries")
	}
}

func TestZeroProbabilityOmissionIsFaultFree(t *testing.T) {
	g := graph.Line(6)
	cfg := floodConfig(g, 6)
	cfg.Fault = Omission
	cfg.P = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || res.Stats.Faults != 0 {
		t.Fatalf("p=0 run: success=%v faults=%d", res.Success, res.Stats.Faults)
	}
}

// silencerAdversary silences every faulty node (equivalent to omission) —
// used to exercise the malicious plumbing deterministically.
type silencerAdversary struct{}

func (silencerAdversary) Corrupt(e *Exec, faulty []int) map[int][]Transmission {
	out := make(map[int][]Transmission, len(faulty))
	for _, id := range faulty {
		out[id] = nil
	}
	return out
}

// outOfTurnAdversary makes every faulty node shout "EVIL" to all neighbors.
type outOfTurnAdversary struct{}

func (outOfTurnAdversary) Corrupt(e *Exec, faulty []int) map[int][]Transmission {
	out := make(map[int][]Transmission, len(faulty))
	for _, id := range faulty {
		out[id] = []Transmission{{To: Broadcast, Payload: []byte("EVIL")}}
	}
	return out
}

// overreachAdversary tries to corrupt node 0 even when healthy.
type overreachAdversary struct{}

func (overreachAdversary) Corrupt(e *Exec, faulty []int) map[int][]Transmission {
	return map[int][]Transmission{0: nil}
}

func TestMaliciousAdversaryDrivesFaultyNodes(t *testing.T) {
	g := graph.TwoNode()
	heard := 0
	cfg := &Config{
		Graph: g, Model: MessagePassing, Fault: Malicious, P: 0.5,
		Source: 0, SourceMsg: []byte("m"), Rounds: 2000, Seed: 7,
		Adversary: outOfTurnAdversary{},
		NewNode: func(id int) Node {
			return &funcNode{
				deliver: func(round, from int, payload []byte) {
					if id == 1 && string(payload) == "EVIL" {
						heard++
					}
				},
			}
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if heard == 0 {
		t.Fatal("adversary transmissions never delivered")
	}
	// Node 1 hears EVIL whenever node 0 is faulty (p=0.5 of 2000 rounds).
	if heard < 800 || heard > 1200 {
		t.Fatalf("EVIL count %d implausible for p=0.5", heard)
	}
	_ = res
}

func TestAdversaryCannotTouchHealthyNodes(t *testing.T) {
	g := graph.TwoNode()
	cfg := &Config{
		Graph: g, Model: MessagePassing, Fault: Malicious, P: 0.9,
		Source: 0, SourceMsg: []byte("m"), Rounds: 200, Seed: 7,
		Adversary: overreachAdversary{},
		NewNode:   func(id int) Node { return &floodNode{} },
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("corrupting a healthy node should be rejected")
	}
}

func TestLimitedMaliciousCannotSpeakOutOfTurn(t *testing.T) {
	g := graph.TwoNode()
	cfg := &Config{
		Graph: g, Model: MessagePassing, Fault: LimitedMalicious, P: 0.9,
		Source: 0, SourceMsg: []byte("m"), Rounds: 500, Seed: 7,
		Adversary: outOfTurnAdversary{},
		NewNode: func(id int) Node {
			return &funcNode{} // everyone silent: adversary must stay silent too
		},
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("limited-malicious adversary spoke out of turn without rejection")
	}
}

func TestLimitedMaliciousCanAlterAndDrop(t *testing.T) {
	// Node 0 intends one broadcast per round; a payload-flipping adversary
	// is legal under LimitedMalicious.
	g := graph.TwoNode()
	flips := 0
	cfg := &Config{
		Graph: g, Model: MessagePassing, Fault: LimitedMalicious, P: 0.5,
		Source: 0, SourceMsg: []byte("m"), Rounds: 1000, Seed: 11,
		Adversary: flipAdversary{},
		NewNode: func(id int) Node {
			return &funcNode{
				transmit: func(round int) []Transmission {
					if id == 0 {
						return []Transmission{{To: Broadcast, Payload: []byte("good")}}
					}
					return nil
				},
				deliver: func(round, from int, payload []byte) {
					if string(payload) == "bad" {
						flips++
					}
				},
			}
		},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if flips == 0 {
		t.Fatal("payload alteration never observed")
	}
}

// flipAdversary rewrites every intended payload to "bad".
type flipAdversary struct{}

func (flipAdversary) Corrupt(e *Exec, faulty []int) map[int][]Transmission {
	out := make(map[int][]Transmission, len(faulty))
	for _, id := range faulty {
		var ts []Transmission
		for _, intent := range e.Intents[id] {
			ts = append(ts, Transmission{To: intent.To, Payload: []byte("bad")})
		}
		out[id] = ts
	}
	return out
}

// checkLimited is checkLimitedInto over fresh scratch sized for the
// largest destination in intent or actual.
func checkLimited(intent, actual []Transmission) error {
	maxTo := 0
	for _, t := range intent {
		if t.To > maxTo {
			maxTo = t.To
		}
	}
	for _, t := range actual {
		if t.To > maxTo {
			maxTo = t.To
		}
	}
	return checkLimitedInto(make([]int, maxTo+2), intent, actual)
}

func TestCheckLimited(t *testing.T) {
	intent := []Transmission{{To: 1, Payload: []byte("a")}, {To: 2, Payload: []byte("b")}}
	if err := checkLimited(intent, nil); err != nil {
		t.Fatalf("dropping everything should be legal: %v", err)
	}
	if err := checkLimited(intent, []Transmission{{To: 1, Payload: []byte("z")}}); err != nil {
		t.Fatalf("altering one should be legal: %v", err)
	}
	if err := checkLimited(intent, []Transmission{{To: 3, Payload: []byte("z")}}); err == nil {
		t.Fatal("new destination should be illegal")
	}
	if err := checkLimited(intent, []Transmission{
		{To: 1, Payload: []byte("z")}, {To: 1, Payload: []byte("w")},
	}); err == nil {
		t.Fatal("duplicating a slot should be illegal")
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.Grid(4, 4)
	run := func() execution {
		cfg := floodConfig(g, 30)
		cfg.Fault = Omission
		cfg.P = 0.4
		cfg.Seed = 99
		res, err := observed(cfg, Run)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Success != b.Success || a.Stats != b.Stats {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	for r := range a.rounds {
		fa, fb := a.rounds[r].Faulty, b.rounds[r].Faulty
		if len(fa) != len(fb) {
			t.Fatalf("round %d fault sets differ", r)
		}
		for i := range fa {
			if fa[i] != fb[i] {
				t.Fatalf("round %d fault sets differ", r)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	g := graph.Grid(4, 4)
	mk := func(seed uint64) *Result {
		cfg := floodConfig(g, 30)
		cfg.Fault = Omission
		cfg.P = 0.4
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(1), mk(2)
	if a.Stats.Faults == b.Stats.Faults && a.Stats.Deliveries == b.Stats.Deliveries {
		t.Log("warning: two seeds coincided on fault and delivery counts (possible but unlikely)")
	}
}

func TestObserverInvokedEveryRound(t *testing.T) {
	g := graph.Line(4)
	var rounds []int
	cfg := floodConfig(g, 7)
	cfg.Observer = func(r *RoundRecord) { rounds = append(rounds, r.Round) }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 7 {
		t.Fatalf("observer saw %d rounds, want 7", len(rounds))
	}
	for i, r := range rounds {
		if r != i {
			t.Fatalf("observer rounds out of order: %v", rounds)
		}
	}
}

func TestHistoryRecordsDeliveries(t *testing.T) {
	g := graph.Line(3)
	res, err := observed(floodConfig(g, 3), Run)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.rounds) != 3 {
		t.Fatalf("observer kept %d records, want 3", len(res.rounds))
	}
	// In round 0 node 1 hears M from 0, and node 2 nothing yet.
	d := res.rounds[0].Delivered[1]
	if len(d) != 1 || d[0].From != 0 || !bytes.Equal(d[0].Payload, []byte("M")) {
		t.Fatalf("round 0 deliveries to node 1: %v", d)
	}
	if d := res.rounds[0].Delivered[2]; len(d) != 0 {
		t.Fatalf("round 0 deliveries to node 2: %v", d)
	}
	// Node 2's first delivery comes from node 1, in round 1.
	if d := res.rounds[1].Delivered[2]; len(d) == 0 || d[0].From != 1 {
		t.Fatalf("round 1 deliveries to node 2: %v", d)
	}
}

// TestEnginesEquivalent is the cross-engine determinism property: for
// random graphs, fault rates, and seeds, the sequential and concurrent
// engines produce identical results and histories.
func TestEnginesEquivalent(t *testing.T) {
	check := func(seed uint32, pRaw uint8, faultRaw uint8) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(30)
		g := graph.GNP(n, 0.15, r)
		fault := []FaultType{NoFaults, Omission, Malicious, LimitedMalicious}[int(faultRaw)%4]
		cfg := &Config{
			Graph: g, Model: MessagePassing, Fault: fault,
			P:      float64(pRaw%90) / 100,
			Source: r.Intn(n), SourceMsg: []byte("msg"),
			NewNode: func(id int) Node { return &floodNode{} },
			Rounds:  20, Seed: uint64(seed) * 31,
			TrackCompletion: true,
		}
		if fault == Malicious || fault == LimitedMalicious {
			cfg.Adversary = silencerAdversary{}
		}
		a, err := observed(cfg, Run)
		if err != nil {
			t.Logf("seq error: %v", err)
			return false
		}
		b, err := observed(cfg, RunConcurrent)
		if err != nil {
			t.Logf("conc error: %v", err)
			return false
		}
		if a.Success != b.Success || a.Stats != b.Stats || a.CompletedRound != b.CompletedRound {
			t.Logf("results diverge: %+v vs %+v", a, b)
			return false
		}
		for id := range a.Outputs {
			if !bytes.Equal(a.Outputs[id], b.Outputs[id]) {
				t.Logf("output %d diverges", id)
				return false
			}
		}
		for r := range a.rounds {
			ra, rb := a.rounds[r], b.rounds[r]
			if fmt.Sprint(ra.Faulty) != fmt.Sprint(rb.Faulty) {
				t.Logf("round %d faulty diverges", r)
				return false
			}
			if fmt.Sprint(ra.Delivered) != fmt.Sprint(rb.Delivered) {
				t.Logf("round %d deliveries diverge", r)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentRadio(t *testing.T) {
	// Radio semantics on the concurrent engine: simple one-at-a-time relay
	// along a line succeeds.
	g := graph.Line(5)
	schedules := make(map[int]map[int][]byte)
	for i := 0; i < 4; i++ {
		schedules[i] = map[int][]byte{i: []byte("m")}
	}
	cfg := &Config{
		Graph: g, Model: Radio, Fault: NoFaults,
		Source: 0, SourceMsg: []byte("m"), Rounds: 5, Seed: 3,
		NewNode: func(id int) Node { return &scheduleNode{rounds: schedules[id]} },
	}
	res, err := RunConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("concurrent radio relay failed at node %d", res.FirstFailed)
	}
}

func TestConcurrentPropagatesNodeErrors(t *testing.T) {
	g := graph.TwoNode()
	cfg := &Config{
		Graph: g, Model: Radio, Fault: NoFaults,
		Source: 0, SourceMsg: []byte("m"), Rounds: 1, Seed: 1,
		NewNode: func(id int) Node {
			return &funcNode{transmit: func(int) []Transmission {
				return []Transmission{{To: 1, Payload: []byte("x")}} // illegal in radio
			}}
		},
	}
	if _, err := RunConcurrent(cfg); err == nil {
		t.Fatal("concurrent engine swallowed a validation error")
	}
}

func TestTrackCompletionOffByDefault(t *testing.T) {
	g := graph.Line(4)
	res, err := Run(floodConfig(g, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("flood failed")
	}
	// Without tracking, CompletedRound reports the horizon end.
	if res.CompletedRound != 9 {
		t.Fatalf("CompletedRound = %d, want 9 (horizon)", res.CompletedRound)
	}
}

func BenchmarkSequentialFlood(b *testing.B) {
	g := graph.Grid(16, 16)
	cfg := floodConfig(g, 40)
	cfg.Fault = Omission
	cfg.P = 0.3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConcurrentFlood(b *testing.B) {
	g := graph.Grid(16, 16)
	cfg := floodConfig(g, 40)
	cfg.Fault = Omission
	cfg.P = 0.3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := RunConcurrent(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
