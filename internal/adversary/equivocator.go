package adversary

import "faultcast/internal/sim"

// Equivocator implements the adversary of the Theorem 2.3 impossibility
// proof (message passing, malicious failures, p ≥ 1/2). The source s
// broadcasts one of two possible messages, M0 or M1. Whenever a
// transmission of s fails, the adversary delivers instead the message the
// algorithm would have sent for the OPPOSITE source message: "if Ms = 0
// and a failure occurs, then the adversary delivers A1(σ) at v, and vice
// versa".
//
// For the algorithms in this repository whose source transmissions depend
// only on the source message (Simple-Malicious: the source transmits Ms in
// every step of its window), the counterfactual A_{1-b}(σ) is simply the
// opposite message, so the adversary realizes the proof exactly: at
// p = 1/2 the receiver observes M0 and M1 with identical distributions
// regardless of the truth, pinning its error probability at 1/2.
//
// For p > 1/2 the adversary applies the proof's "slowing" reduction: when
// a transmission is faulty, it delivers the correct message with
// probability q = (p − 1/2)/p and equivocates otherwise, which makes the
// effective equivocation rate exactly 1/2 because (1−p) + p·q = 1/2.
//
// For p < 1/2 (below the threshold) no slowing can help, and the adversary
// simply equivocates on every fault — its strongest move — which is how
// experiment E2 exercises Simple-Malicious against a worst-case opponent.
type Equivocator struct {
	// M0, M1 are the two candidate source messages.
	M0, M1 []byte
	// SourceOnly restricts equivocation to the source's transmissions,
	// with other faulty nodes behaving fault-free (the proof's setting,
	// where only the s→v channel is failure-prone). When false, every
	// faulty node's payloads are swapped.
	SourceOnly bool
}

// Corrupt implements sim.Adversary.
func (a Equivocator) Corrupt(e *sim.Exec, faulty []int) map[int][]sim.Transmission {
	out := e.Replacements()
	for _, id := range faulty {
		if a.SourceOnly && id != e.Source {
			continue // behave exactly as the algorithm intends
		}
		if e.P > 0.5 && e.Rand.Float64() < (e.P-0.5)/e.P {
			continue // slowing: deliver the correct message this time
		}
		intents := e.Intents[id]
		ts := e.Transmissions(len(intents))
		for i, intent := range intents {
			ts[i] = sim.Transmission{
				To:      intent.To,
				Payload: swapPayload(intent.Payload, a.M0, a.M1),
			}
		}
		out[id] = ts
	}
	return out
}
