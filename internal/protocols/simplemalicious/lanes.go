package simplemalicious

import (
	"faultcast/internal/bitset"
	"faultcast/internal/sim"
)

// Lane kernel: Simple-Malicious in the transposed layout. A node's vote
// over its listening window becomes one bit-sliced counter per payload
// symbol in a bitset.LaneVotes — the default, the source message, and, in
// the three-symbol universe the noise adversary induces, the third value
// — and the plurality winner is computed word-parallel: for two symbols,
// winner M exactly where M has more votes than the default; for three,
// the strict argmax of bitset.LanePlurality, whose ties resolve to the
// default just like protocol.Tally.Winner. That one formula covers every
// scalar Output path: the committed value is the winner of the full window (commitment
// happens only after the window closes and votes are frozen), the
// horizon-truncated fallback is the winner of the votes so far, and an
// empty tally gives all-zero counters, whose strict comparison fails just
// like the scalar nil message.

// NewLaneKernel returns the transposed protocol instance for the given
// symbol-alphabet size.
func (p *Proto) NewLaneKernel(symbols int) sim.LaneKernel {
	n := p.tree.N()
	order := p.tree.Order()
	listeners := make([][]int, len(order))
	for ph, v := range order {
		listeners[ph] = p.tree.Children[v]
	}
	return &laneKernel{
		proto:     p,
		order:     order,
		listeners: listeners,
		votes:     bitset.NewLaneVotes(n, symbols, p.m), // a window holds at most m votes
	}
}

// LaneTargets returns the per-vertex send-target lists for the message
// passing model (tree children), or nil for radio (broadcast).
func (p *Proto) LaneTargets() [][]int {
	if p.model == sim.Radio {
		return nil
	}
	return p.tree.Children
}

type laneKernel struct {
	proto *Proto
	order []int
	// listeners[ph] is the set of nodes whose listening window is phase
	// ph — the children of order[ph]. In the radio model every node hears
	// the phase's lone transmitter, but only these nodes count votes
	// (everyone else's window is a different phase), so the two models
	// share the listener sets.
	listeners [][]int
	votes     *bitset.LaneVotes
}

func (k *laneKernel) Reset() { k.votes.Reset() }

func (k *laneKernel) Transmit(round int, intent []uint64, pay [][]uint64) {
	phase := round / k.proto.m
	if phase >= len(k.order) {
		return
	}
	v := k.order[phase]
	if k.proto.model == sim.MessagePassing && len(k.proto.tree.Children[v]) == 0 {
		return
	}
	intent[v] = ^uint64(0)
	if v == k.proto.tree.Root {
		pay[0][v] = ^uint64(0)
		return
	}
	// By the level-respecting enumeration v's parent's phase — v's
	// listening window — is strictly earlier, so v's votes are frozen and
	// this is the committed M_v of the scalar protocol.
	k.votes.Cast(v, pay)
}

func (k *laneKernel) Absorb(round int, heard []uint64, sym [][]uint64) {
	phase := round / k.proto.m
	if phase >= len(k.listeners) {
		return
	}
	for _, v := range k.listeners[phase] {
		k.votes.Add(v, heard[v], sym)
	}
}

func (k *laneKernel) Verdict() uint64 {
	and := ^uint64(0)
	for v := range k.proto.tree.N() {
		if v == k.proto.tree.Root {
			continue // the source holds M by definition
		}
		w1, _ := k.votes.Winner(v)
		and &= w1
	}
	return and
}
