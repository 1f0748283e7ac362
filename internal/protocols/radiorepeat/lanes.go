package radiorepeat

import (
	"faultcast/internal/bitset"
	"faultcast/internal/sim"
)

// Lane kernel: the Theorem 3.4 repeated-schedule radio algorithms in the
// transposed layout. Each schedule step i becomes a series of m rounds in
// which the step's transmitter set broadcasts; a node listening in series
// S_i either adopts the first NON-default reception and sticks with it
// (Omission-Radio — an informed bit plus the adopted payload's symbol
// columns per vertex) or votes (Malicious-Radio — the bitset.LaneVotes
// simplemalicious counts in, one bit-sliced counter per payload symbol
// with a word-parallel plurality winner: commitment freezes the window so
// committed and truncated outputs share the formula).

// NewLaneKernel returns the transposed protocol instance for the given
// symbol-alphabet size. RadioRepeat is radio-only, so there is no
// LaneTargets: the LaneSpec takes nil targets.
func (p *Proto) NewLaneKernel(symbols int) sim.LaneKernel {
	n := len(p.recvStep)
	stepSets := make([][]int, p.steps)
	for v := 0; v < n; v++ { // iterate vertices, not the map, for determinism
		for _, t := range p.sched[v] {
			stepSets[t] = append(stepSets[t], v)
		}
	}
	recvSets := make([][]int, p.steps)
	for v, rs := range p.recvStep {
		if rs >= 0 {
			recvSets[rs] = append(recvSets[rs], v)
		}
	}
	k := &laneKernel{proto: p, stepSets: stepSets, recvSets: recvSets}
	if p.variant == MaliciousVariant {
		k.votes = bitset.NewLaneVotes(n, symbols, p.m) // a series holds at most m votes
	} else {
		k.has = make([]uint64, n)
		k.bel = make([][]uint64, symbols-1)
		for c := range k.bel {
			k.bel[c] = make([]uint64, n)
		}
	}
	return k
}

type laneKernel struct {
	proto    *Proto
	stepSets [][]int // series -> transmitting vertices
	recvSets [][]int // series -> vertices whose listening window it is

	// OmissionVariant: sticky first-non-default adoption state.
	has []uint64
	bel [][]uint64 // adopted payload symbol columns; bel[0] = "belief is M"

	// MaliciousVariant: per-symbol vote counters.
	votes *bitset.LaneVotes
}

func (k *laneKernel) Reset() {
	if k.proto.variant == OmissionVariant {
		for v := range k.has {
			k.has[v] = 0
			for c := range k.bel {
				k.bel[c][v] = 0
			}
			if k.proto.recvStep[v] < 0 { // the source
				k.has[v] = ^uint64(0)
				k.bel[0][v] = ^uint64(0)
			}
		}
		return
	}
	k.votes.Reset()
}

func (k *laneKernel) Transmit(round int, intent []uint64, pay [][]uint64) {
	series := round / k.proto.m
	if series >= len(k.stepSets) {
		return
	}
	for _, v := range k.stepSets[series] {
		intent[v] = ^uint64(0)
		rs := k.proto.recvStep[v]
		switch {
		case rs < 0: // the source always transmits M
			pay[0][v] = ^uint64(0)
		case k.proto.variant == OmissionVariant:
			for c := range k.bel {
				pay[c][v] = k.bel[c][v]
			}
		case round >= (rs+1)*k.proto.m:
			// The listening series is over and the vote committed; the
			// counters are frozen, so recomputing the winner each round
			// reproduces the scalar M_v exactly.
			k.votes.Cast(v, pay)
		default:
			// not yet committed: "transmit 0" (columns stay clear)
		}
	}
}

func (k *laneKernel) Absorb(round int, heard []uint64, sym [][]uint64) {
	series := round / k.proto.m
	if series >= len(k.recvSets) {
		return
	}
	for _, v := range k.recvSets[series] {
		if k.proto.variant == OmissionVariant {
			nonDef := uint64(0)
			for c := range k.bel {
				nonDef |= sym[c][v]
			}
			adopt := heard[v] & nonDef &^ k.has[v]
			for c := range k.bel {
				k.bel[c][v] |= adopt & sym[c][v]
			}
			k.has[v] |= adopt
			continue
		}
		k.votes.Add(v, heard[v], sym)
	}
}

func (k *laneKernel) Verdict() uint64 {
	and := ^uint64(0)
	if k.proto.variant == OmissionVariant {
		for _, w := range k.bel[0] {
			and &= w
		}
		return and
	}
	for v := range k.proto.recvStep {
		if k.proto.recvStep[v] < 0 {
			continue // the source holds M by definition
		}
		w1, _ := k.votes.Winner(v)
		and &= w1
	}
	return and
}
