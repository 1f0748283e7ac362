package sim

// The test-side engine entry points. The scalar reference core
// (scalar_test.go) and the goroutine-per-node engine (RunConcurrent,
// concurrent_test.go) are the differential references the production
// round core is checked against; both are visible to package sim_test.

// ScalarRunner is Runner on the scalar reference core: a trial with a
// given seed is bit-identical to RunScalar with that seed.
type ScalarRunner struct {
	cfg *Config
	st  *runState
}

// NewScalarRunner validates the configuration once and returns a reusable
// scalar reference runner. Config.Seed is ignored.
func NewScalarRunner(cfg *Config) (*ScalarRunner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ScalarRunner{cfg: cfg, st: allocRunState(cfg)}, nil
}

// Run executes one trial with the given seed on the scalar reference core.
func (r *ScalarRunner) Run(seed uint64) (*Result, error) {
	st := r.st
	if err := st.Reset(seed); err != nil {
		return nil, err
	}
	for round := 0; round < r.cfg.Rounds; round++ {
		if err := st.transmitPhase(round); err != nil {
			return nil, err
		}
		if err := st.faultAndDeliverScalar(round); err != nil {
			return nil, err
		}
		st.deliverPhase(round)
		st.finishRound(round)
	}
	return st.result(), nil
}

// RunScalar is Run on the scalar reference core.
func RunScalar(cfg *Config) (*Result, error) {
	r, err := NewScalarRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(cfg.Seed)
}

// RoundStepper exposes the sequential engine's round loop to the external
// allocation tests: it resets a fresh run state to seed and returns a
// function that executes the next full round (transmit, fault and
// deliver, node callbacks, bookkeeping).
func RoundStepper(cfg *Config, seed uint64) (func() error, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := allocRunState(cfg)
	if err := st.Reset(seed); err != nil {
		return nil, err
	}
	round := 0
	return func() error {
		if err := st.transmitPhase(round); err != nil {
			return err
		}
		if err := st.faultAndDeliver(round); err != nil {
			return err
		}
		st.deliverPhase(round)
		st.finishRound(round)
		round++
		return nil
	}, nil
}
