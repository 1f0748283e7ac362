package kucera

import (
	"fmt"
	"math"
	"sync"

	"faultcast/internal/graph"
	"faultcast/internal/protocol"
	"faultcast/internal/sim"
)

// Proto is the runtime for a compiled program over the branches of a BFS
// tree (Theorem 3.2): each node plays the line position equal to its
// depth, receives from its parent, and sends to all of its children.
type Proto struct {
	prog *Program
	tree *graph.Tree

	// lane is the compiled lane program, built by the first NewLaneKernel.
	laneOnce sync.Once
	lane     *laneProgram
}

// New compiles a plan for the BFS tree of g rooted at source. The plan
// must cover the tree height; use PlanForGraph for the Theorem 3.2
// parameter choice. Only the positions 0..height that tree vertices play
// are materialized: the padding past the tree's depth, which the plan
// carries for its error bound, is never executed. The horizon and
// guarantee stay those of the whole plan.
func New(g *graph.Graph, source int, plan *Plan) (*Proto, error) {
	tree := graph.BFSTree(g, source)
	if plan.G.Length < tree.Height() {
		return nil, fmt.Errorf("kucera: plan covers length %d < tree height %d", plan.G.Length, tree.Height())
	}
	prog, err := compile(plan, tree.Height())
	if err != nil {
		return nil, err
	}
	return &Proto{prog: prog, tree: tree}, nil
}

// PlanForGraph builds the Theorem 3.2 plan for g: a line plan of length
// at least L = D + d·log^α(n), where the paper takes any α > 1 and a
// constant d making the per-branch error below 1/n².
func PlanForGraph(g *graph.Graph, source int, p, alpha, d float64, opts Options) (*Plan, error) {
	if alpha <= 1 {
		return nil, fmt.Errorf("kucera: alpha must exceed 1, got %v", alpha)
	}
	tree := graph.BFSTree(g, source)
	length := tree.Height() + padLength(g.N(), alpha, d)
	if length < 1 {
		length = 1
	}
	return BuildPlan(length, p, opts)
}

// padLength returns ceil(d·log2(n)^alpha).
func padLength(n int, alpha, d float64) int {
	if n <= 1 {
		return 1
	}
	lg := log2(float64(n))
	v := d * pow(lg, alpha)
	return int(v) + 1
}

// Rounds returns the running time: the compiled horizon plus one
// quiescent round in which the last receives and the root combine
// resolve (no transmissions occur in it).
func (p *Proto) Rounds() int { return p.prog.Rounds + 1 }

// Program exposes the compiled program (tests, diagnostics).
func (p *Proto) Program() *Program { return p.prog }

// NewNode returns the runtime instance for node id.
func (p *Proto) NewNode(id int) sim.Node {
	return &node{proto: p}
}

type node struct {
	proto *Proto
	env   *sim.Env
	pos   *posProgram
	depth int

	regs map[int][]byte
	// pendingRecv is the index into pos.Recvs of the next unresolved
	// receive; recvGot holds the payload delivered for the receive round
	// currently in flight (nil = silence so far).
	nextRecv    int
	nextCombine int
	nextSend    int
	recvGot     []byte
	recvRound   int
}

func (n *node) Init(env *sim.Env) {
	n.env = env
	n.depth = n.proto.tree.Depth[env.ID]
	n.pos = &n.proto.prog.Positions[n.depth]
	n.regs = make(map[int][]byte)
	n.recvRound = -1
	if env.IsSource() {
		// Position 0's input register (the block input) is the source
		// message itself.
		n.regs[n.pos.FinalReg] = env.SourceMsg
	}
}

// resolve advances receives and combines that are due before the sends of
// the given round: receives of rounds < round, then combines of rounds
// <= round (combines execute at the start of their round).
func (n *node) resolve(round int) {
	for n.nextRecv < len(n.pos.Recvs) && n.pos.Recvs[n.nextRecv].Round < round {
		r := n.pos.Recvs[n.nextRecv]
		payload := protocol.Default
		if n.recvRound == r.Round && n.recvGot != nil {
			payload = n.recvGot
		}
		n.regs[r.Reg] = payload
		n.recvGot = nil
		n.nextRecv++
	}
	for n.nextCombine < len(n.pos.Combines) && n.pos.Combines[n.nextCombine].Round <= round {
		c := n.pos.Combines[n.nextCombine]
		tally := protocol.NewTally()
		for _, src := range c.Srcs {
			v, ok := n.regs[src]
			if !ok {
				v = protocol.Default
			}
			tally.Add(v)
		}
		n.regs[c.Dst] = tally.Winner()
		n.nextCombine++
	}
}

func (n *node) Transmit(round int) []sim.Transmission {
	n.resolve(round)
	if n.nextSend >= len(n.pos.Sends) || n.pos.Sends[n.nextSend].Round != round {
		return nil
	}
	s := n.pos.Sends[n.nextSend]
	n.nextSend++
	payload, ok := n.regs[s.Reg]
	if !ok {
		payload = protocol.Default
	}
	children := n.proto.tree.Children[n.env.ID]
	if len(children) == 0 {
		return nil
	}
	ts := make([]sim.Transmission, len(children))
	for i, c := range children {
		ts[i] = sim.Transmission{To: c, Payload: payload}
	}
	return ts
}

func (n *node) Deliver(round, from int, payload []byte) {
	if from != n.proto.tree.Parent[n.env.ID] {
		return // only the parent link carries protocol traffic
	}
	// Record the payload for the receive scheduled this round, if any.
	if n.nextRecv < len(n.pos.Recvs) && n.pos.Recvs[n.nextRecv].Round == round {
		n.recvRound = round
		n.recvGot = append([]byte(nil), payload...)
	}
}

// Output returns the node's final committed value: the output register of
// the longest block ending at its position. It never mutates state — the
// engine may poll it between rounds — so pending work resolves only in
// Transmit; the extra quiescent round in Proto.Rounds guarantees
// everything has resolved by the horizon.
func (n *node) Output() []byte {
	return n.regs[n.pos.FinalReg]
}

func log2(x float64) float64   { return math.Log2(x) }
func pow(x, y float64) float64 { return math.Pow(x, y) }
