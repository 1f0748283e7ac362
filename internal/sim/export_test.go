package sim

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
