package trace

import (
	"strings"
	"testing"

	"faultcast/internal/graph"
	"faultcast/internal/protocols/simpleomission"
	"faultcast/internal/sim"
)

func runTraced(t *testing.T, observer func(*sim.RoundRecord)) {
	t.Helper()
	g := graph.Line(4)
	proto := simpleomission.New(g, 0, sim.MessagePassing, 2)
	cfg := &sim.Config{
		Graph: g, Model: sim.MessagePassing, Fault: sim.Omission, P: 0.3,
		Source: 0, SourceMsg: []byte("M"),
		NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: 5,
		Observer: observer,
	}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLoggerWritesRounds(t *testing.T) {
	var sb strings.Builder
	l := &Logger{W: &sb}
	runTraced(t, l.Observe)
	out := sb.String()
	if !strings.Contains(out, "round    0:") {
		t.Fatalf("missing round 0 line:\n%s", out)
	}
	if strings.Count(out, "round") < 8 {
		t.Fatalf("too few round lines:\n%s", out)
	}
}

func TestLoggerVerboseShowsPayloads(t *testing.T) {
	var sb strings.Builder
	l := &Logger{W: &sb, Verbose: true}
	runTraced(t, l.Observe)
	if !strings.Contains(sb.String(), `"M"`) {
		t.Fatalf("verbose log missing payloads:\n%s", sb.String())
	}
}

func TestCountersAggregate(t *testing.T) {
	c := NewCounters()
	runTraced(t, c.Observe)
	if c.Rounds != 8 { // 4 nodes x m=2·log2(4)=4... rounds = n*m = 4*4 = 16
		// WindowLen(2, 4) = ceil(2*2) = 4; rounds = 16.
		if c.Rounds != 16 {
			t.Fatalf("rounds = %d, want 16", c.Rounds)
		}
	}
	if c.Deliveries == 0 || c.Transmissions == 0 {
		t.Fatalf("counters empty: %+v", c)
	}
	total := 0
	for _, cnt := range c.FaultsPerRound {
		total += cnt
	}
	if total != c.Rounds {
		t.Fatalf("fault histogram covers %d of %d rounds", total, c.Rounds)
	}
	if c.String() == "" {
		t.Fatal("empty counter string")
	}
}

// lane-eligible scenario: simpleomission over MessagePassing is one of
// the configurations the root package lowers to the lane core for
// estimation. Per-round observation still goes through the round engine,
// which streams one record per round to the observer.
func laneEligibleConfig(observer func(*sim.RoundRecord)) *sim.Config {
	g := graph.Line(7)
	proto := simpleomission.New(g, 0, sim.MessagePassing, 1)
	return &sim.Config{
		Graph: g, Model: sim.MessagePassing, Fault: sim.Omission, P: 0.45,
		Source: 0, SourceMsg: []byte("1"),
		NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: 12,
		Observer: observer,
	}
}

// recordRun runs the lane-eligible scenario once more, keeping every
// record its observer receives, and replays them into observe — the
// stream an observer attached to an identical run must have seen.
func recordRun(t *testing.T, observe func(*sim.RoundRecord)) {
	t.Helper()
	var recs []*sim.RoundRecord
	if _, err := sim.Run(laneEligibleConfig(func(r *sim.RoundRecord) { recs = append(recs, r) })); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		observe(r)
	}
}

// TestCountersIdenticalAcrossRoundCores pins the observer contract on a
// lane-eligible scenario: the per-round stream the observer receives is
// a deterministic record stream it may keep, so Counters fed live and
// Counters fed from a kept copy of an identical run aggregate to the same
// totals. (The lane core is absent by design — it has no per-round
// records to observe; see the package comment. The scalar and
// goroutine-per-node reference engines are pinned to the same stream in
// internal/sim's differential tests.)
func TestCountersIdenticalAcrossRoundCores(t *testing.T) {
	live := NewCounters()
	res, err := sim.Run(laneEligibleConfig(live.Observe))
	if err != nil {
		t.Fatal(err)
	}
	recorded := NewCounters()
	recordRun(t, recorded.Observe)
	if live.Rounds == 0 || live.Transmissions == 0 {
		t.Fatalf("live counters empty: %+v", live)
	}
	if live.Rounds != recorded.Rounds || live.Faults != recorded.Faults ||
		live.Transmissions != recorded.Transmissions ||
		live.Deliveries != recorded.Deliveries || live.Collisions != recorded.Collisions {
		t.Fatalf("observer stream differs from the kept records:\nlive     %+v\nrecorded %+v", live, recorded)
	}
	if live.Faults != res.Stats.Faults || live.Deliveries != res.Stats.Deliveries {
		t.Fatalf("observer totals %+v disagree with the run's stats %+v", live, res.Stats)
	}
	for k, v := range live.FaultsPerRound {
		if recorded.FaultsPerRound[k] != v {
			t.Fatalf("fault histograms differ at %d: live %d, recorded %d", k, v, recorded.FaultsPerRound[k])
		}
	}
}

// TestLoggerIdenticalAcrossRoundCores: the rendered per-round log — the
// user-visible face of observation — is byte-identical whether it is
// written live or rendered afterwards from kept records.
func TestLoggerIdenticalAcrossRoundCores(t *testing.T) {
	var live, recorded strings.Builder
	if _, err := sim.Run(laneEligibleConfig((&Logger{W: &live, Verbose: true}).Observe)); err != nil {
		t.Fatal(err)
	}
	recordRun(t, (&Logger{W: &recorded, Verbose: true}).Observe)
	if live.Len() == 0 {
		t.Fatal("empty live log")
	}
	if l, r := live.String(), recorded.String(); l != r {
		t.Fatalf("live log differs from the kept records:\nlive:\n%s\nrecorded:\n%s", l, r)
	}
}
