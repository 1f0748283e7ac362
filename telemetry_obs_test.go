package faultcast

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"faultcast/internal/exec"
	"faultcast/internal/telemetry"
)

// liveSpan builds a collector-backed span to hang estimation telemetry
// off, returning the span and the trace for post-run inspection.
func liveSpan(name string) (*telemetry.Span, *telemetry.Trace) {
	tr := telemetry.NewCollector(8, 4).StartTrace(name)
	return tr.StartSpan("execute"), tr
}

// TestTracedEstimateBitIdentical is the determinism half of the
// telemetry contract at the library layer: Estimate with a live span and
// batch probe attached must return exactly the Estimate computed bare,
// for every core the scenario supports — observation never feeds back
// into seeds, batch sizing, stop decisions, or tallies.
func TestTracedEstimateBitIdentical(t *testing.T) {
	scenarios := laneScenarios()
	for _, name := range []string{"flooding/omission", "simple-malicious/radio/flip", "composed/limited/flip"} {
		cfg, ok := scenarios[name]
		if !ok {
			t.Fatalf("scenario %s missing from laneScenarios", name)
		}
		for _, core := range []string{"lanes", "bitset"} {
			plan, err := compileOn(cfg, core)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, core, err)
			}
			bare, err := plan.Estimate(300, WithBaseSeed(7))
			if err != nil {
				t.Fatal(err)
			}

			sp, tr := liveSpan("estimate")
			var mu sync.Mutex
			probeTrials := 0
			traced, err := plan.Estimate(300, WithBaseSeed(7),
				WithSpan(sp),
				WithBatchProbe(func(bs exec.BatchStat) {
					mu.Lock()
					probeTrials += bs.Trials
					mu.Unlock()
				}))
			if err != nil {
				t.Fatal(err)
			}
			sp.End()
			tr.Finish()
			if !reflect.DeepEqual(traced, bare) {
				t.Fatalf("%s on %s: traced %+v != bare %+v", name, plan.EstimationCore(), traced, bare)
			}
			if probeTrials != traced.Trials {
				t.Fatalf("%s on %s: probe saw %d trials, estimate ran %d",
					name, plan.EstimationCore(), probeTrials, traced.Trials)
			}
		}
	}
}

// TestTracedStoreRefinementBitIdentical extends the identity to the
// durable path: a store-backed refinement with tracing attached must
// land on the cold bits, and the store replay must surface as a
// "store-replay" child span carrying the resumed-trial count.
func TestTracedStoreRefinementBitIdentical(t *testing.T) {
	cfg := laneScenarios()["flooding/omission"]
	plan, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := plan.Estimate(200, WithBaseSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	st := &memTallyStore{}
	if _, err := plan.Estimate(96, WithBaseSeed(11), WithTallyStore(st)); err != nil {
		t.Fatal(err)
	}

	sp, tr := liveSpan("estimate")
	refined, err := plan.Estimate(200, WithBaseSeed(11), WithTallyStore(st), WithSpan(sp))
	if err != nil {
		t.Fatal(err)
	}
	sp.End()
	tr.Finish()
	if !reflect.DeepEqual(refined, cold) {
		t.Fatalf("traced store refinement diverged: %+v != cold %+v", refined, cold)
	}
	var replay *telemetry.Span
	for _, c := range sp.Children {
		if c.Name == "store-replay" {
			replay = c
		}
	}
	if replay == nil {
		t.Fatalf("no store-replay span under execute: %+v", sp.Children)
	}
	found := false
	for _, a := range replay.Attrs {
		if a.Key == "resumed_trials" {
			found = true
			if a.Value == "0" {
				t.Fatalf("store replay resumed 0 trials: %+v", replay.Attrs)
			}
		}
	}
	if !found {
		t.Fatalf("store-replay span missing resumed_trials: %+v", replay.Attrs)
	}
}

// TestPerRoundObservationByCore documents and pins which cores support
// per-round observation (internal/trace observers, Config.Trace logs):
// the bitset round engine invokes the observer after every round, and
// Plan.Run always executes on it, so per-trial round logs
// work even for a plan whose *estimation* runs on the lane-transposed
// core. The lane core itself packs 64 trials per word and never
// materializes per-round records, so estimation-path observation is
// per-batch (WithBatchProbe), never per-round.
func TestPerRoundObservationByCore(t *testing.T) {
	cfg := laneScenarios()["flooding/omission"]
	cfg.Trace = nil
	plan, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EstimationCore() != "lanes" {
		t.Fatalf("scenario no longer lane-lowered: %s", plan.EstimationCore())
	}

	// A single trial of the same plan still yields per-round logs: Run
	// goes through the round engine regardless of the estimation core.
	var sb strings.Builder
	traced := cfg
	traced.Trace = &sb
	tplan, err := Compile(traced)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tplan.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "round") != tplan.Rounds() {
		t.Fatalf("round log has %d lines, want %d:\n%s", strings.Count(out, "round"), tplan.Rounds(), out)
	}
	// And the logged trial is the same trial: rerunning without the log
	// gives the identical Result.
	bare, err := plan.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Success != bare.Success || res.Rounds != bare.Rounds {
		t.Fatalf("traced Run diverged: %+v != %+v", res, bare)
	}
}
