// Quickstart: broadcast a message over a faulty grid and check
// almost-safety — the one-screen tour of the faultcast API.
package main

import (
	"fmt"
	"log"
	"os"

	"faultcast"
	"faultcast/internal/store"
)

func main() {
	// An 8x8 grid; the source sits in a corner. At every step, every
	// node's transmitter fails independently with probability 1/2.
	g := faultcast.Grid(8, 8)
	const p = 0.5

	// Feasibility first: omission failures are survivable for ANY p < 1
	// (Theorem 2.1), so this must say "true".
	fmt.Printf("omission, message passing, p=%.1f feasible: %v\n",
		p, faultcast.Feasible(faultcast.MessagePassing, faultcast.Omission, p, g.MaxDegree()))

	// Compile once: algorithm selection (Auto picks the paper's optimal
	// choice — BFS-tree flooding, Θ(D + log n) rounds, Theorem 3.1),
	// spanning tree, and round horizon are paid here, never per trial.
	plan, err := faultcast.Compile(faultcast.Config{
		Graph:   g,
		Source:  0,
		Message: []byte("meet at dawn"),
		Model:   faultcast.MessagePassing,
		Fault:   faultcast.Omission,
		P:       p,
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One trial per seed; same seed, same run, always.
	res, err := plan.Run(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single run: success=%v in %d rounds (%d transmitter faults along the way)\n",
		res.Success, res.Rounds, res.Faults)

	// Monte-Carlo on the same plan: is it ALMOST-SAFE, i.e. does it
	// succeed with probability at least 1 - 1/n? The per-batch tallies go
	// into a tally store (here a throwaway directory), so the estimate can
	// be refined later.
	dir, err := os.MkdirTemp("", "quickstart-tallies")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	tallies, err := store.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	est, err := plan.Estimate(500, faultcast.WithTallyStore(tallies))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("success rate over %d runs: %v\n", est.Trials, est)
	fmt.Printf("almost-safe (target %.4f): %v\n", plan.AlmostSafeTarget(), est.AlmostSafe(g.N()))

	// Need a tighter interval later? Resume instead of restarting: the
	// stored 500 trials are replayed and the stream continues the same
	// seed sequence, so this equals one big 4000-trial estimate — for
	// 3500 trials of marginal cost.
	resumed := 0
	tighter, err := plan.Estimate(4000, faultcast.WithTallyStore(tallies),
		faultcast.WithResumeReport(func(n int) { resumed = n }))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refined to %d trials (%d replayed from the store): %v\n", tighter.Trials, resumed, tighter)
}
