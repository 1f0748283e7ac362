package kucera

import (
	"cmp"
	"fmt"
	"slices"
)

// The compiler lowers a Plan into static per-position instruction tables.
// Positions index nodes along the line (0 = source, i = i-th node); on a
// tree, position = depth, a send goes to all children and a receive
// listens to the parent (the Theorem 3.2 extension: "whenever a node has
// more than one child, it transmits to all its children the message that
// it is instructed to transmit along the line").
//
// Registers are single-assignment value cells owned by one position each;
// the runtime materializes only the registers of its own position. The
// timing discipline is: a register written by a receive in round t, or by
// a combine executing at round t, is readable by sends/combines in rounds
// > t and >= t respectively (the runtime resolves receives of round t-1
// and combines of round t before sends of round t).

type sendInstr struct {
	Round int
	Reg   int // register to transmit (at this position)
}

type recvInstr struct {
	Round int
	Reg   int // register receiving the payload (Default on silence)
}

type combineInstr struct {
	Round int
	Dst   int
	Srcs  []int // majority over these registers
}

// posProgram is the instruction table of one position.
type posProgram struct {
	Sends    []sendInstr
	Recvs    []recvInstr
	Combines []combineInstr
	// FinalReg is the register holding this position's final committed
	// value (the output register of the longest block ending here), or -1
	// for position 0 (the source, which knows the message a priori).
	FinalReg int
	// finalLen tracks the block length backing FinalReg during compile.
	finalLen int
}

// Program is a compiled plan.
type Program struct {
	Positions []posProgram // index 0..depth limit (Compile: 0..Length)
	Rounds    int          // horizon: all instructions finish before this
	Guar      Guarantee
}

// posCount is one position's instruction count, gathered by the counting
// pass so the filling pass appends into exact-size tables.
type posCount struct{ sends, recvs, combines int }

type compiler struct {
	prog    *Program
	limit   int // deepest materialized position
	nextReg int
	// counts is non-nil during the counting pass, which walks the plan
	// exactly like the filling pass but records only table sizes; nSrcs
	// totals the combine sources, and srcs is the filling pass's unused
	// remainder of their backing array.
	counts []posCount
	nSrcs  int
	srcs   []int
}

// Compile lowers the plan to a Program over positions 0..plan.G.Length.
func Compile(plan *Plan) (*Program, error) { return compile(plan, plan.G.Length) }

// compile lowers the plan to a Program over positions 0..limit (limit <=
// plan.G.Length). Positions past limit are not materialized: a subtree
// starting at or past limit emits nothing, and combines and final
// registers beyond limit are skipped. The horizon and guarantee are those
// of the whole plan, and positions 0..limit hold the full program's
// instructions except the sends of position limit (its only receivers
// would sit past it).
func compile(plan *Plan, limit int) (*Program, error) {
	c := &compiler{limit: limit, prog: &Program{
		Positions: make([]posProgram, limit+1),
		Guar:      plan.G,
	}}
	for i := range c.prog.Positions {
		c.prog.Positions[i].FinalReg = -1
	}
	c.counts = make([]posCount, limit+1)
	c.walk(plan)
	c.reserve()
	c.prog.Rounds = c.walk(plan)
	for pos := range c.prog.Positions {
		p := &c.prog.Positions[pos]
		slices.SortFunc(p.Sends, func(a, b sendInstr) int { return cmp.Compare(a.Round, b.Round) })
		slices.SortFunc(p.Recvs, func(a, b recvInstr) int { return cmp.Compare(a.Round, b.Round) })
		// Stable: an inner block's combine can share a round with the
		// enclosing combine that reads its output, and emission order
		// (inner first) must be preserved.
		slices.SortStableFunc(p.Combines, func(a, b combineInstr) int { return cmp.Compare(a.Round, b.Round) })
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c.prog, nil
}

// walk runs one pass over the whole plan and returns its horizon.
func (c *compiler) walk(plan *Plan) int {
	c.nextReg = 0
	inReg := c.alloc() // position 0's input register, loaded at Init
	c.setFinal(0, inReg, plan.G.Length+1)
	outReg := c.alloc()
	end := c.emit(plan, 0, 0, inReg, outReg)
	c.setFinal(plan.G.Length, outReg, plan.G.Length+1)
	return end
}

// reserve ends the counting pass: it slices one exact-size backing array
// per instruction kind into the positions' empty tables.
func (c *compiler) reserve() {
	var total posCount
	for _, n := range c.counts {
		total.sends += n.sends
		total.recvs += n.recvs
		total.combines += n.combines
	}
	sends := make([]sendInstr, total.sends)
	recvs := make([]recvInstr, total.recvs)
	combines := make([]combineInstr, total.combines)
	for i, n := range c.counts {
		p := &c.prog.Positions[i]
		p.Sends, sends = sends[:0:n.sends], sends[n.sends:]
		p.Recvs, recvs = recvs[:0:n.recvs], recvs[n.recvs:]
		p.Combines, combines = combines[:0:n.combines], combines[n.combines:]
	}
	c.srcs = make([]int, c.nSrcs)
	c.counts = nil
}

func (c *compiler) alloc() int {
	r := c.nextReg
	c.nextReg++
	return r
}

// setFinal records reg as pos's final value if it closes a longer block
// than any previously recorded one.
func (c *compiler) setFinal(pos, reg, blockLen int) {
	if pos > c.limit || c.counts != nil {
		return
	}
	p := &c.prog.Positions[pos]
	if blockLen > p.finalLen {
		p.finalLen = blockLen
		p.FinalReg = reg
	}
}

// emit compiles plan starting at (startPos, startRound), reading its input
// from inReg (a register at startPos) and writing its output to outReg (a
// register at startPos+plan.G.Length). It returns the round at which
// outReg becomes usable: startRound + plan.G.Time.
func (c *compiler) emit(plan *Plan, startPos, startRound, inReg, outReg int) int {
	if startPos >= c.limit {
		return startRound + plan.G.Time
	}
	switch plan.Kind {
	case KindBase:
		if c.counts != nil {
			c.counts[startPos].sends++
			c.counts[startPos+1].recvs++
		} else {
			c.prog.Positions[startPos].Sends = append(c.prog.Positions[startPos].Sends,
				sendInstr{Round: startRound, Reg: inReg})
			c.prog.Positions[startPos+1].Recvs = append(c.prog.Positions[startPos+1].Recvs,
				recvInstr{Round: startRound, Reg: outReg})
		}
		return startRound + 1

	case KindSerial:
		// Segment j spans positions [startPos+j·L, startPos+(j+1)·L] and
		// starts at startRound+j·τ; its input is the previous boundary
		// register, which [CO1]'s timing makes usable exactly on time.
		subLen, subTime := plan.Sub.G.Length, plan.Sub.G.Time
		cur := inReg
		end := startRound
		for j := 0; j < plan.Count; j++ {
			segOut := outReg
			if j < plan.Count-1 {
				segOut = c.alloc()
				c.setFinal(startPos+(j+1)*subLen, segOut, subLen)
			}
			end = c.emit(plan.Sub, startPos+j*subLen, startRound+j*subTime, cur, segOut)
			cur = segOut
		}
		return end

	case KindRepeat:
		// Execution k starts at startRound+k·δ; all executions read inReg
		// (single-assignment, already usable) and write private slots at
		// the end position; the majority combine fires once the last
		// execution delivers.
		endPos := startPos + plan.G.Length
		delta := plan.Sub.G.Delay
		var srcs []int
		if endPos <= c.limit && c.counts == nil {
			srcs, c.srcs = c.srcs[:plan.Count:plan.Count], c.srcs[plan.Count:]
		}
		end := startRound
		for k := 0; k < plan.Count; k++ {
			slot := c.alloc()
			if srcs != nil {
				srcs[k] = slot
			}
			e := c.emit(plan.Sub, startPos, startRound+k*delta, inReg, slot)
			if e > end {
				end = e
			}
		}
		if endPos <= c.limit {
			if c.counts != nil {
				c.counts[endPos].combines++
				c.nSrcs += plan.Count
			} else {
				c.prog.Positions[endPos].Combines = append(c.prog.Positions[endPos].Combines,
					combineInstr{Round: end, Dst: outReg, Srcs: srcs})
			}
		}
		return end

	default:
		panic(fmt.Sprintf("kucera: unknown plan kind %d", plan.Kind))
	}
}

// validate checks the compile-time invariants the runtime relies on:
// no two sends (or receives) share a (position, round) slot, rounds fit
// the horizon, and every non-source position has a final register.
func (c *compiler) validate() error {
	for pos := range c.prog.Positions {
		p := &c.prog.Positions[pos]
		for i := 1; i < len(p.Sends); i++ {
			if p.Sends[i].Round == p.Sends[i-1].Round {
				return fmt.Errorf("kucera: position %d has two sends in round %d", pos, p.Sends[i].Round)
			}
		}
		for i := 1; i < len(p.Recvs); i++ {
			if p.Recvs[i].Round == p.Recvs[i-1].Round {
				return fmt.Errorf("kucera: position %d has two receives in round %d", pos, p.Recvs[i].Round)
			}
		}
		for _, s := range p.Sends {
			if s.Round < 0 || s.Round >= c.prog.Rounds {
				return fmt.Errorf("kucera: position %d send at round %d outside horizon %d", pos, s.Round, c.prog.Rounds)
			}
		}
		if p.FinalReg == -1 {
			return fmt.Errorf("kucera: position %d has no final register", pos)
		}
	}
	return nil
}
