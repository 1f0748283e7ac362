package sim

import (
	"fmt"
	"sync"
)

// RunConcurrent is the goroutine-per-node reference engine, kept in the
// tests as a differential witness of the sequential engine (and exported
// to package sim_test). It executes the configuration with one goroutine
// per node, synchronized round-by-round with barriers — the paper's
// synchronous model realized literally. Fault sampling, adversary calls, and the
// delivery rule stay centralized (they are global per-round computations),
// while each node's Transmit and Deliver calls run on that node's own
// goroutine. Given the same Config, the outcome is bit-identical to Run;
// TestEnginesEquivalent enforces this.
func RunConcurrent(cfg *Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := newRunState(cfg)
	if err != nil {
		return nil, err
	}

	type roundCmd struct {
		round int
		phase int // 0 = transmit, 1 = deliver
	}
	n := st.n
	cmds := make([]chan roundCmd, n)
	errs := make([]error, n)
	var wg sync.WaitGroup // per-phase barrier
	var workers sync.WaitGroup

	for id := 0; id < n; id++ {
		cmds[id] = make(chan roundCmd)
		workers.Add(1)
		go func(id int) {
			defer workers.Done()
			node := st.nodes[id]
			for cmd := range cmds[id] {
				switch cmd.phase {
				case 0:
					ts := node.Transmit(cmd.round)
					if err := st.validateTransmissions(id, ts); err != nil {
						errs[id] = fmt.Errorf("sim: round %d: %w", cmd.round, err)
					}
					st.intents[id] = ts
				case 1:
					for _, r := range st.delivered[id] {
						node.Deliver(cmd.round, r.From, r.Payload)
					}
				}
				wg.Done()
			}
		}(id)
	}

	shutdown := func() {
		for _, c := range cmds {
			close(c)
		}
		workers.Wait()
	}

	runPhase := func(round, phase int) error {
		wg.Add(n)
		for id := 0; id < n; id++ {
			cmds[id] <- roundCmd{round: round, phase: phase}
		}
		wg.Wait()
		for id := 0; id < n; id++ {
			if errs[id] != nil {
				return errs[id]
			}
		}
		return nil
	}

	for round := 0; round < cfg.Rounds; round++ {
		if err := runPhase(round, 0); err != nil {
			shutdown()
			return nil, err
		}
		// Central phases: fault sampling, adversary, delivery computation.
		// These touch shared state and the single RNG streams, so they run
		// on the coordinating goroutine, exactly as in the sequential
		// engine (and with the same draw order, preserving determinism).
		if err := st.faultAndDeliver(round); err != nil {
			shutdown()
			return nil, err
		}
		if err := runPhase(round, 1); err != nil {
			shutdown()
			return nil, err
		}
		st.finishRound(round)
	}
	shutdown()
	return st.result(), nil
}

func newRunState(cfg *Config) (*runState, error) {
	st := allocRunState(cfg)
	if err := st.Reset(cfg.Seed); err != nil {
		return nil, err
	}
	return st, nil
}
