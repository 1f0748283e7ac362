// Package simplemalicious implements Algorithm Simple-Malicious (Section
// 2.2.1 of the paper): Simple-Omission augmented with a vote. The source
// v_1 transmits the source message for m steps; then for i = 2..n, node
// v_i computes M_i as the majority among the messages received from its
// parent during the parent's phase and transmits M_i for the m steps of
// its own phase (default "0" if there is no majority).
//
// The same algorithm establishes feasibility for p < 1/2 in the message
// passing model (Theorem 2.2) and for p < (1-p)^(Δ+1) in the radio model
// (Theorem 2.4). The analyses differ; so does one implementation detail:
// message passing links authenticate their sender, so a node votes only
// over messages arriving on the parent link, whereas a radio receiver
// cannot attribute transmissions and votes over everything it hears during
// its listening window (exactly the events E_rec/E_cor analyzed in Theorem
// 2.4).
package simplemalicious

import (
	"faultcast/internal/graph"
	"faultcast/internal/protocol"
	"faultcast/internal/sim"
)

// Proto holds the shared preprocessed structures (tree, enumeration,
// window length).
type Proto struct {
	tree  *graph.Tree
	model sim.Model
	m     int
	pos   []int
}

// New prepares the protocol; c is the window constant of m = ceil(c·log n).
func New(g *graph.Graph, source int, model sim.Model, c float64) *Proto {
	tree := graph.BFSTree(g, source)
	pos := make([]int, g.N())
	for i, v := range tree.Order() {
		pos[v] = i
	}
	return &Proto{tree: tree, model: model, m: protocol.WindowLen(c, g.N()), pos: pos}
}

// WindowLen returns m.
func (p *Proto) WindowLen() int { return p.m }

// Rounds returns the total running time n·m.
func (p *Proto) Rounds() int { return p.tree.N() * p.m }

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
	tx        []sim.Transmission // Transmit's reused result (sim.Node contract)
}

func (n *node) Init(env *sim.Env) {
	n.env = env
	if env.IsSource() {
		n.msg = env.SourceMsg
		n.committed = true
	}
}

// listenPhase returns the phase during which this node's parent transmits
// (i.e. this node's listening window), or -1 for the source.
func (n *node) listenPhase() int {
	parent := n.proto.tree.Parent[n.env.ID]
	if parent == -1 {
		return -1
	}
	return n.proto.pos[parent]
}

// commitIfDue finalizes M_i once the listening window has passed.
func (n *node) commitIfDue(round int) {
	if n.committed {
		return
	}
	lp := n.listenPhase()
	if lp >= 0 && round >= (lp+1)*n.proto.m {
		n.msg = n.tally.Winner()
		n.committed = true
	}
}

func (n *node) Transmit(round int) []sim.Transmission {
	n.commitIfDue(round)
	phase := round / n.proto.m
	if phase != n.proto.pos[n.env.ID] {
		return nil
	}
	payload := n.msg
	if payload == nil {
		payload = protocol.Default
	}
	if n.proto.model == sim.Radio {
		n.tx = append(n.tx[:0], sim.Transmission{To: sim.Broadcast, Payload: payload})
		return n.tx
	}
	n.tx = n.tx[:0]
	for _, c := range n.proto.tree.Children[n.env.ID] {
		n.tx = append(n.tx, sim.Transmission{To: c, Payload: payload})
	}
	return n.tx
}

// Deliver records a vote if the message falls inside this node's listening
// window. In the message passing model only messages on the parent link
// count; in the radio model every reception during the window counts,
// since radio receivers cannot attribute transmissions.
func (n *node) Deliver(round, from int, payload []byte) {
	if n.committed {
		return
	}
	lp := n.listenPhase()
	if lp < 0 || round/n.proto.m != lp {
		return
	}
	if n.proto.model == sim.MessagePassing && from != n.proto.tree.Parent[n.env.ID] {
		return
	}
	n.tally.Add(payload)
}

// Output returns M_i. If the horizon ends before this node's listening
// window closed (a misconfigured, too-short run) the vote is finalized on
// whatever was heard, which preserves the invariant that Output is this
// node's best current belief.
func (n *node) Output() []byte {
	if !n.committed && n.tally.Total() > 0 {
		return n.tally.Winner()
	}
	return n.msg
}
