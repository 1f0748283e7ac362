package sim

// The scalar reference round core: per-id Bernoulli fault draws and
// neighbor-callback delivery rules, the semantics the word-parallel core
// in engine.go must reproduce bit for bit (differential_test.go). It
// shares transmitPhase, applyFaults, deliverPhase and finishRound with the
// production engine and replaces only fault sampling and delivery.

// faultAndDeliverScalar is faultAndDeliver on the scalar reference core.
func (st *runState) faultAndDeliverScalar(round int) error {
	st.faulty = st.faulty[:0]
	if st.cfg.Fault != NoFaults {
		st.faultMask.Clear()
		for id := 0; id < st.n; id++ {
			if st.faultRnd.Bernoulli(st.cfg.P) {
				st.faulty = append(st.faulty, id)
				st.faultMask.Add(id)
			}
		}
	}
	if err := st.applyFaults(round); err != nil {
		return err
	}
	if st.cfg.Model == MessagePassing {
		st.deliverMessagePassing()
	} else {
		st.deliverRadio(round)
	}
	return nil
}

func (st *runState) deliverMessagePassing() {
	// Iterate senders in increasing id so each receiver's list arrives in
	// increasing sender order (deterministic across engines).
	for from := 0; from < st.n; from++ {
		for _, t := range st.actual[from] {
			st.stats.Transmissions++
			if t.To == Broadcast {
				st.cfg.Graph.ForNeighbors(from, func(w int) {
					st.delivered[w] = append(st.delivered[w], Received{From: from, Payload: t.Payload})
					st.stats.Deliveries++
				})
			} else {
				st.delivered[t.To] = append(st.delivered[t.To], Received{From: from, Payload: t.Payload})
				st.stats.Deliveries++
			}
		}
	}
}

func (st *runState) deliverRadio(round int) {
	collisions := 0
	for v := 0; v < st.n; v++ {
		if len(st.actual[v]) > 0 {
			continue // a transmitting node hears nothing
		}
		talkers := 0
		talker := -1
		st.cfg.Graph.ForNeighbors(v, func(w int) {
			if len(st.actual[w]) > 0 {
				talkers++
				talker = w
			}
		})
		switch {
		case talkers == 1:
			st.delivered[v] = append(st.delivered[v], Received{From: talker, Payload: st.actual[talker][0].Payload})
			st.stats.Deliveries++
		case talkers > 1:
			collisions++
		}
	}
	for v := 0; v < st.n; v++ {
		if len(st.actual[v]) > 0 {
			st.stats.Transmissions++
		}
	}
	st.stats.Collisions += collisions
	st.lastCollisions = collisions
}
