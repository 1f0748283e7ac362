// Package adversary implements the adaptive adversaries used in the
// paper's malicious-failure scenarios: generic corruption strategies
// (crash, payload flipping, out-of-turn noise) plus the two proof-strategy
// adversaries — the equivocator of Theorem 2.3 (message passing, p ≥ 1/2)
// and the star adversary of Theorem 2.4 (radio, p ≥ (1−p)^(Δ+1)) — each of
// which makes the receiver's posterior on the source message exactly
// uninformative at its threshold.
//
// Every adversary satisfies sim.Adversary. They draw randomness only from
// the Exec's private stream, so runs stay reproducible.
package adversary

import (
	"bytes"

	"faultcast/internal/sim"
)

// Crash silences every faulty node — malicious machinery exercising the
// same behaviour as omission failures. Useful as an ablation baseline.
type Crash struct{}

// Corrupt implements sim.Adversary.
func (Crash) Corrupt(e *sim.Exec, faulty []int) map[int][]sim.Transmission {
	out := e.Replacements()
	for _, id := range faulty {
		out[id] = nil
	}
	return out
}

// Flip rewrites the payload of every intended transmission of a faulty
// node to a fixed wrong value. It never adds transmissions, so it is legal
// under both Malicious and LimitedMalicious semantics.
type Flip struct {
	// Wrong is the substituted payload; defaults to "X" when empty.
	Wrong []byte
}

func (f Flip) wrong() []byte {
	if len(f.Wrong) == 0 {
		return defaultWrong
	}
	return f.Wrong
}

// Default payloads, shared across rounds: receivers must not mutate
// delivered payloads (the sim.Node contract).
var (
	defaultWrong = []byte("X")
	defaultNoise = []byte("noise")
)

// Corrupt implements sim.Adversary.
func (f Flip) Corrupt(e *sim.Exec, faulty []int) map[int][]sim.Transmission {
	out := e.Replacements()
	wrong := f.wrong()
	for _, id := range faulty {
		ts := e.Transmissions(len(e.Intents[id]))
		for i, intent := range e.Intents[id] {
			ts[i] = sim.Transmission{To: intent.To, Payload: wrong}
		}
		out[id] = ts
	}
	return out
}

// RandomNoise corrupts each intended transmission of a faulty node with an
// independently random payload drawn from Alphabet (default {"0","1"}).
// A weaker, non-adaptive baseline against which the proof-strategy
// adversaries are compared in ablation A2.
type RandomNoise struct {
	Alphabet [][]byte
}

func (r RandomNoise) alphabet() [][]byte {
	if len(r.Alphabet) == 0 {
		return [][]byte{{'0'}, {'1'}}
	}
	return r.Alphabet
}

// Corrupt implements sim.Adversary.
func (r RandomNoise) Corrupt(e *sim.Exec, faulty []int) map[int][]sim.Transmission {
	ab := r.alphabet()
	out := e.Replacements()
	for _, id := range faulty {
		ts := e.Transmissions(len(e.Intents[id]))
		for i, intent := range e.Intents[id] {
			ts[i] = sim.Transmission{To: intent.To, Payload: ab[e.Rand.Intn(len(ab))]}
		}
		out[id] = ts
	}
	return out
}

// OutOfTurn makes every faulty node broadcast noise regardless of its
// intent — the "transmit in steps in which the algorithm requires it to
// remain silent" capability of full malicious failures. Only legal under
// sim.Malicious.
type OutOfTurn struct {
	Noise []byte
}

func (o OutOfTurn) noise() []byte {
	if len(o.Noise) == 0 {
		return defaultNoise
	}
	return o.Noise
}

// Corrupt implements sim.Adversary.
func (o OutOfTurn) Corrupt(e *sim.Exec, faulty []int) map[int][]sim.Transmission {
	out := e.Replacements()
	ts := e.Transmissions(len(faulty))
	noise := o.noise()
	for i, id := range faulty {
		ts[i] = sim.Transmission{To: sim.Broadcast, Payload: noise}
		out[id] = ts[i : i+1 : i+1]
	}
	return out
}

// swapPayload returns the counterfactual payload: m1 if payload equals m0,
// m0 if it equals m1, and payload itself otherwise.
func swapPayload(payload, m0, m1 []byte) []byte {
	switch {
	case bytes.Equal(payload, m0):
		return m1
	case bytes.Equal(payload, m1):
		return m0
	default:
		return payload
	}
}
