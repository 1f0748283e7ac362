package kucera

import (
	"math/bits"

	"faultcast/internal/bitset"
	"faultcast/internal/sim"
)

// Lane kernel: the compiled CO1/CO2 program in the transposed layout.
// Registers are single-assignment cells whose values, in the small payload
// universe of the supported fault lowerings, are fully described by the
// payload symbol columns — one uint64 per register per column (lane L's
// bit of column 0 = "this register holds M in trial L"; all columns clear
// = the default). The majority combine over K source registers becomes a
// word-parallel vote: over two symbols a bit-sliced popcount against the
// strict-majority threshold K/2+1 (plurality over two symbols is exactly
// strict majority: cntM > K − cntM), over three symbols one counter per
// symbol and bitset.LanePlurality — every source register always votes
// (a never-written register holds the default, like the scalar node's
// missing-register read), so the default counter is fed by the lanes in
// neither non-default column.
//
// Every vertex at the same tree depth runs the same position program, so
// the instruction cursors are shared per depth and each instruction is
// applied to all of the depth's vertices at once.

// NewLaneKernel returns the transposed protocol instance for the given
// symbol-alphabet size. Its instruction tables are the Proto's, built on
// first use and shared by every kernel; a kernel owns only its registers
// and instruction cursors.
func (p *Proto) NewLaneKernel(symbols int) sim.LaneKernel {
	p.laneOnce.Do(p.compileLanes)
	n := p.tree.N()
	cols := symbols - 1
	k := &laneKernel{
		proto:   p,
		cursors: make([]laneCursor, len(p.lane.progs)),
		reg:     make([][][]uint64, cols),
		pending: make([][]uint64, cols),
	}
	for c := 0; c < cols; c++ {
		k.reg[c] = make([][]uint64, n)
		for v := 0; v < n; v++ {
			k.reg[c][v] = make([]uint64, p.lane.progs[p.tree.Depth[v]].nregs)
		}
		k.pending[c] = make([]uint64, n)
	}
	for i := range k.scratch {
		k.scratch[i] = make([]uint64, p.lane.maxW)
	}
	return k
}

// laneProgram is a Proto's compiled lane program: the vertices at each
// tree depth and each depth's instruction table. It is immutable once
// built, so kernels share it.
type laneProgram struct {
	byDepth [][]int
	progs   []laneDepthProg
	maxW    int // widest combine counter
}

// compileLanes builds p.lane; New materializes exactly the positions
// 0..height the tree's depths index.
func (p *Proto) compileLanes() {
	depths := len(p.prog.Positions)
	lp := &laneProgram{
		byDepth: make([][]int, depths),
		progs:   make([]laneDepthProg, depths),
		maxW:    1,
	}
	for v, d := range p.tree.Depth {
		lp.byDepth[d] = append(lp.byDepth[d], v)
	}
	for d := range lp.progs {
		lp.progs[d] = newLaneDepthProg(&p.prog.Positions[d])
		for _, c := range lp.progs[d].combines {
			lp.maxW = max(lp.maxW, c.width)
		}
	}
	p.lane = lp
}

// LaneTargets returns the per-vertex send-target lists (the tree children
// — the compiled program is message passing only).
func (p *Proto) LaneTargets() [][]int { return p.tree.Children }

type laneInstr struct {
	round int
	reg   int // dense register index
}

type laneCombine struct {
	round int
	dst   int
	srcs  []int
	width int    // counter planes: bits.Len(len(srcs))
	need  uint64 // strict-majority threshold len(srcs)/2+1
}

// laneDepthProg is one position's instruction table with register ids
// remapped to a dense 0..nregs-1 space (the runtime materializes only the
// registers its own position touches, like the scalar node's lazy map).
type laneDepthProg struct {
	nregs    int
	final    int // dense index of FinalReg
	recvs    []laneInstr
	sends    []laneInstr
	combines []laneCombine
}

// laneCursor is a kernel's position in one depth's instruction table,
// reset per trial; instructions are consumed in the scalar node's order
// (receives of rounds < r, combines of rounds <= r, then the send of
// round r).
type laneCursor struct {
	recv, combine, send int
}

func newLaneDepthProg(pos *posProgram) laneDepthProg {
	var dp laneDepthProg
	// Every register is written by one receive or combine: sizing the
	// map up front halves the cost of a lane program's compile.
	idx := make(map[int]int, 1+len(pos.Recvs)+len(pos.Combines))
	dense := func(reg int) int {
		i, ok := idx[reg]
		if !ok {
			i = dp.nregs
			idx[reg] = i
			dp.nregs++
		}
		return i
	}
	dp.final = dense(pos.FinalReg)
	for _, r := range pos.Recvs {
		dp.recvs = append(dp.recvs, laneInstr{round: r.Round, reg: dense(r.Reg)})
	}
	for _, s := range pos.Sends {
		dp.sends = append(dp.sends, laneInstr{round: s.Round, reg: dense(s.Reg)})
	}
	for _, c := range pos.Combines {
		srcs := make([]int, len(c.Srcs))
		for i, s := range c.Srcs {
			srcs[i] = dense(s)
		}
		dp.combines = append(dp.combines, laneCombine{
			round: c.Round,
			dst:   dense(c.Dst),
			srcs:  srcs,
			width: bits.Len(uint(len(srcs))),
			need:  uint64(len(srcs)/2 + 1),
		})
	}
	return dp
}

type laneKernel struct {
	proto   *Proto
	cursors []laneCursor // per depth

	// reg[c][vertex][dense register] is symbol column c of the register's
	// value; pending[c][vertex] the in-flight receive's columns (all clear
	// on silence or a default payload).
	reg     [][][]uint64
	pending [][]uint64
	scratch [3][]uint64 // per-symbol combine counters
}

func (k *laneKernel) Reset() {
	for c := range k.reg {
		for v := range k.reg[c] {
			clear(k.reg[c][v])
			k.pending[c][v] = 0
		}
	}
	clear(k.cursors)
	// Position 0's input register is the source message itself.
	k.reg[0][k.proto.tree.Root][k.proto.lane.progs[0].final] = ^uint64(0)
}

// combine runs one combine instruction for vertex v.
func (k *laneKernel) combine(c *laneCombine, v int) {
	if len(k.reg) == 1 {
		counter := k.scratch[0][:c.width]
		for i := range counter {
			counter[i] = 0
		}
		regs := k.reg[0][v]
		for _, s := range c.srcs {
			bitset.LaneAdd(counter, regs[s])
		}
		regs[c.dst] = bitset.LaneGEConst(counter, c.need)
		return
	}
	c0 := k.scratch[0][:c.width]
	c1 := k.scratch[1][:c.width]
	c2 := k.scratch[2][:c.width]
	for i := 0; i < c.width; i++ {
		c0[i], c1[i], c2[i] = 0, 0, 0
	}
	r0, r1 := k.reg[0][v], k.reg[1][v]
	for _, s := range c.srcs {
		bitset.LaneAdd(c1, r0[s])
		bitset.LaneAdd(c2, r1[s])
		bitset.LaneAdd(c0, ^(r0[s] | r1[s]))
	}
	w1, w2 := bitset.LanePlurality(c0, c1, c2)
	r0[c.dst] = w1
	r1[c.dst] = w2
}

func (k *laneKernel) Transmit(round int, intent []uint64, pay [][]uint64) {
	lp := k.proto.lane
	for d := range lp.progs {
		dp, cur, vs := &lp.progs[d], &k.cursors[d], lp.byDepth[d]
		for cur.recv < len(dp.recvs) && dp.recvs[cur.recv].round < round {
			reg := dp.recvs[cur.recv].reg
			for c := range k.reg {
				for _, v := range vs {
					k.reg[c][v][reg] = k.pending[c][v]
					k.pending[c][v] = 0
				}
			}
			cur.recv++
		}
		for cur.combine < len(dp.combines) && dp.combines[cur.combine].round <= round {
			c := &dp.combines[cur.combine]
			for _, v := range vs {
				k.combine(c, v)
			}
			cur.combine++
		}
		if cur.send < len(dp.sends) && dp.sends[cur.send].round == round {
			reg := dp.sends[cur.send].reg
			cur.send++
			for _, v := range vs {
				if len(k.proto.tree.Children[v]) == 0 {
					continue
				}
				intent[v] = ^uint64(0)
				for c := range k.reg {
					pay[c][v] = k.reg[c][v][reg]
				}
			}
		}
	}
}

func (k *laneKernel) Absorb(round int, heard []uint64, sym [][]uint64) {
	lp := k.proto.lane
	for d := range lp.progs {
		// Record the payload for the receive scheduled this round, if any
		// (cursors already consumed everything earlier, so a match can
		// only sit at the front).
		if dp, i := &lp.progs[d], k.cursors[d].recv; i < len(dp.recvs) && dp.recvs[i].round == round {
			for _, v := range lp.byDepth[d] {
				for c := range k.pending {
					k.pending[c][v] = heard[v] & sym[c][v]
				}
			}
		}
	}
}

func (k *laneKernel) Verdict() uint64 {
	lp := k.proto.lane
	and := ^uint64(0)
	for d := range lp.progs {
		for _, v := range lp.byDepth[d] {
			and &= k.reg[0][v][lp.progs[d].final]
		}
	}
	return and
}
