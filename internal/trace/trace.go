// Package trace provides execution observers: human-readable per-round
// logs for the CLI and counter aggregation for experiments.
//
// Per-round observation is a round-engine feature. The word-parallel
// bitset round engine (sim.Run, sim.Runner) invokes Config.Observer after
// every round with that round's RoundRecord; the reference engines in
// internal/sim's tests are pinned to that stream bit for bit. The
// lane-transposed trial-parallel core (sim.LaneRunner) packs 64 trials
// into each machine word and never materializes per-round records, so
// estimation on the lane core does not invoke observers; observation there is per-batch
// (faultcast.WithBatchProbe) or per-request (telemetry spans). Plan.Run
// always executes on the round engine, so per-round logs remain available
// for any scenario — including ones whose estimation path is
// lane-lowered.
package trace

import (
	"fmt"
	"io"

	"faultcast/internal/sim"
)

// Logger writes one line per round describing faults, transmissions, and
// deliveries. Attach its Observe method to sim.Config.Observer.
type Logger struct {
	W io.Writer
	// Verbose additionally prints every delivered message.
	Verbose bool
}

// Observe implements the sim.Config.Observer contract.
func (l *Logger) Observe(r *sim.RoundRecord) {
	nTrans, nDeliv := 0, 0
	for _, ts := range r.Actual {
		nTrans += len(ts)
	}
	for _, ds := range r.Delivered {
		nDeliv += len(ds)
	}
	fmt.Fprintf(l.W, "round %4d: faults=%v transmissions=%d deliveries=%d collisions=%d\n",
		r.Round, r.Faulty, nTrans, nDeliv, r.Collisions)
	if l.Verbose {
		for v, ds := range r.Delivered {
			for _, d := range ds {
				fmt.Fprintf(l.W, "           %d <- %d: %q\n", v, d.From, d.Payload)
			}
		}
	}
}

// Counters aggregates per-round statistics across an execution.
type Counters struct {
	Rounds        int
	Faults        int
	Transmissions int
	Deliveries    int
	Collisions    int
	// FaultsPerRound histograms the number of simultaneous faults.
	FaultsPerRound map[int]int
}

// NewCounters returns an empty aggregate.
func NewCounters() *Counters {
	return &Counters{FaultsPerRound: make(map[int]int)}
}

// Observe implements the sim.Config.Observer contract.
func (c *Counters) Observe(r *sim.RoundRecord) {
	c.Rounds++
	c.Faults += len(r.Faulty)
	c.FaultsPerRound[len(r.Faulty)]++
	for _, ts := range r.Actual {
		c.Transmissions += len(ts)
	}
	for _, ds := range r.Delivered {
		c.Deliveries += len(ds)
	}
	c.Collisions += r.Collisions
}

// String summarizes the counters.
func (c *Counters) String() string {
	return fmt.Sprintf("rounds=%d faults=%d transmissions=%d deliveries=%d collisions=%d",
		c.Rounds, c.Faults, c.Transmissions, c.Deliveries, c.Collisions)
}
