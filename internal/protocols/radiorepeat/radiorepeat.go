// Package radiorepeat implements the O(opt·log n) almost-safe radio
// broadcasting algorithms of Theorem 3.4. Given an optimal (or
// near-optimal) fault-free broadcast schedule A for the graph, every step
// i of A is repeated as a series S_i of m = ceil(c·log n) consecutive
// steps:
//
//   - Algorithm Omission-Radio: a node v that receives the message from
//     p(v) in step i of A sets M_v to any message received during series
//     S_i (under omission failures any reception is genuine);
//   - Algorithm Malicious-Radio: v sets M_v to the majority of the
//     messages received during series S_i (default "0" on ties).
//
// In later series where A instructs v to transmit, v transmits M_v. Total
// time is |A|·m = O(opt·log n).
package radiorepeat

import (
	"fmt"

	"faultcast/internal/graph"
	"faultcast/internal/protocol"
	"faultcast/internal/radio"
	"faultcast/internal/sim"
)

// Variant selects the reception rule.
type Variant int

const (
	// OmissionVariant adopts any genuine (non-default) reception.
	OmissionVariant Variant = iota
	// MaliciousVariant takes the majority over the listening series.
	MaliciousVariant
)

func (v Variant) String() string {
	if v == OmissionVariant {
		return "omission-radio"
	}
	return "malicious-radio"
}

// Proto holds the precomputed schedule roles.
type Proto struct {
	variant  Variant
	m        int
	steps    int
	recvStep []int          // listening series per node (-1 = source/never)
	sched    map[int][]int  // node -> series indices in which it transmits
	outcome  *radio.Outcome // kept for tests/diagnostics
}

// New prepares the protocol for graph g, source, and fault-free schedule
// s; c is the window constant of m = ceil(c·log n). It fails if the
// schedule does not inform every node fault-free (it would not be a
// broadcast algorithm).
func New(g *graph.Graph, source int, s *radio.Schedule, variant Variant, c float64) (*Proto, error) {
	out, err := radio.Simulate(g, source, s)
	if err != nil {
		return nil, err
	}
	for v, inf := range out.Informed {
		if !inf {
			return nil, fmt.Errorf("radiorepeat: schedule does not inform node %d", v)
		}
	}
	p := &Proto{
		variant:  variant,
		m:        protocol.WindowLen(c, g.N()),
		steps:    s.Len(),
		recvStep: out.RecvStep,
		sched:    make(map[int][]int),
		outcome:  out,
	}
	for t, set := range s.Steps {
		for _, v := range set {
			p.sched[v] = append(p.sched[v], t)
		}
	}
	return p, nil
}

// WindowLen returns m.
func (p *Proto) WindowLen() int { return p.m }

// Rounds returns the total running time |A|·m.
func (p *Proto) Rounds() int { return p.steps * p.m }

// NewNode returns the protocol instance for node id.
func (p *Proto) NewNode(id int) sim.Node {
	return &node{proto: p}
}

type node struct {
	proto     *Proto
	env       *sim.Env
	tally     protocol.Tally
	msg       []byte
	committed bool
	tx        [1]sim.Transmission // Transmit's reused result (sim.Node contract)
}

func (n *node) Init(env *sim.Env) {
	n.env = env
	if env.IsSource() {
		n.msg = env.SourceMsg
		n.committed = true
	}
}

func (n *node) commitIfDue(round int) {
	if n.committed || n.proto.variant != MaliciousVariant {
		return
	}
	rs := n.proto.recvStep[n.env.ID]
	if rs >= 0 && round >= (rs+1)*n.proto.m {
		n.msg = n.tally.Winner()
		n.committed = true
	}
}

func (n *node) Transmit(round int) []sim.Transmission {
	n.commitIfDue(round)
	series := round / n.proto.m
	scheduled := false
	for _, t := range n.proto.sched[n.env.ID] {
		if t == series {
			scheduled = true
			break
		}
	}
	if !scheduled {
		return nil
	}
	payload := n.msg
	if payload == nil {
		payload = protocol.Default
	}
	n.tx[0] = sim.Transmission{To: sim.Broadcast, Payload: payload}
	return n.tx[:]
}

func (n *node) Deliver(round, from int, payload []byte) {
	if n.committed {
		return
	}
	series := round / n.proto.m
	if series != n.proto.recvStep[n.env.ID] {
		return
	}
	switch n.proto.variant {
	case OmissionVariant:
		// Under omission failures every heard message is a sender's
		// genuine belief, which is always the true message or the default;
		// adopt the first non-default one.
		if !protocol.IsDefault(payload) {
			n.msg = append([]byte(nil), payload...)
			n.committed = true
		}
	case MaliciousVariant:
		n.tally.Add(payload)
	}
}

func (n *node) Output() []byte {
	if !n.committed && n.proto.variant == MaliciousVariant && n.tally.Total() > 0 {
		return n.tally.Winner()
	}
	return n.msg
}
