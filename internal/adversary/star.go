package adversary

import (
	"faultcast/internal/sim"
	"faultcast/internal/stat"
)

// Star implements the adversary of the Theorem 2.4 impossibility proof
// (radio model, malicious failures, p ≥ (1−p)^(Δ+1)) on a star graph whose
// root is the receiver v and whose source s is one of the leaves.
//
// Let S be the set of steps in which the algorithm instructs s to transmit
// and every other node to keep silent. The proof's policy is:
//
//   - outside S, every faulty node behaves exactly as if it were
//     fault-free;
//   - in an S-step, if s is faulty, s switches its transmission to the one
//     corresponding to the opposite source message and all other faulty
//     nodes keep silent;
//   - in an S-step, if s is fault-free, every faulty node transmits a
//     non-empty message, so the receiver v observes a collision
//     (indistinguishable from silence).
//
// At the balance point p = q := (1−p)^(Δ+1) this makes v's posterior on
// the source message exactly 1/2 after every observation. For p strictly
// above the threshold, the adversary applies the proof's "slowing"
// reduction: each faulty node is treated as effectively faulty only with
// probability p*/p, where p* is the fixed point of x = (1−x)^(Δ+1), so
// the effective failure rate sits exactly at the balance point.
type Star struct {
	// M0, M1 are the two candidate source messages.
	M0, M1 []byte
	// Noise is the non-empty message faulty nodes shout to jam v
	// (content is irrelevant — it only needs to collide); defaults to "#".
	Noise []byte
}

func (a Star) noise() []byte {
	if len(a.Noise) == 0 {
		return defaultJam
	}
	return a.Noise
}

// defaultJam is Star's default jamming payload. Receivers must not mutate
// delivered payloads (the sim.Node contract), so every round may share it.
var defaultJam = []byte{'#'}

// Corrupt implements sim.Adversary. It allocates nothing inside an engine:
// the slowing filter rewrites the engine's faulty scratch in place, and the
// replacement map and transmissions come from the Exec's scratch.
func (a Star) Corrupt(e *sim.Exec, faulty []int) map[int][]sim.Transmission {
	// Slowing: reduce the effective per-node failure probability to the
	// threshold fixed point p* when the actual p exceeds it.
	eff := faulty
	if pStar := stat.RadioThreshold(e.G.MaxDegree()); e.P > pStar {
		keep := pStar / e.P
		eff = faulty[:0]
		for _, id := range faulty {
			if e.Rand.Float64() < keep {
				eff = append(eff, id)
			}
		}
	}
	if len(eff) == 0 {
		return nil
	}

	// Detect an S-step: s intends to transmit, everyone else is silent.
	sStep := len(e.Intents[e.Source]) > 0
	if sStep {
		for id, intents := range e.Intents {
			if id != e.Source && len(intents) > 0 {
				sStep = false
				break
			}
		}
	}
	if !sStep {
		return nil // faulty nodes behave as fault-free
	}

	out := e.Replacements()
	sFaulty := false
	for _, id := range eff {
		if id == e.Source {
			sFaulty = true
			break
		}
	}
	if sFaulty {
		// Source equivocates; other faulty nodes keep silent.
		for _, id := range eff {
			if id == e.Source {
				ts := e.Transmissions(1)
				ts[0] = sim.Transmission{To: sim.Broadcast, Payload: swapPayload(e.Intents[id][0].Payload, a.M0, a.M1)}
				out[id] = ts
			} else {
				out[id] = nil
			}
		}
		return out
	}
	// Source healthy: every faulty node jams, all backed by one slice.
	jam := e.Transmissions(len(eff))
	noise := a.noise()
	for i, id := range eff {
		jam[i] = sim.Transmission{To: sim.Broadcast, Payload: noise}
		out[id] = jam[i : i+1 : i+1]
	}
	return out
}
