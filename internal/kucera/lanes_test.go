package kucera

import (
	"math/bits"
	"math/rand/v2"
	"testing"

	"faultcast/internal/graph"
	"faultcast/internal/sim"
)

// laneDrive steps one kernel through a 64-lane trial block, one round per
// step: tree-directed message passing under a flipping limited-malicious
// fault, where each transmitting vertex's lane is faulty with probability
// p and then delivers the flipped symbol.
type laneDrive struct {
	k      sim.LaneKernel
	tree   *graph.Tree
	p      float64
	rnd    *rand.Rand
	intent []uint64
	pay    [][]uint64
	heard  []uint64
	sym    [][]uint64
}

func newLaneDrive(proto *Proto, p float64, seed uint64) *laneDrive {
	n := proto.tree.N()
	d := &laneDrive{
		k: proto.NewLaneKernel(2), tree: proto.tree, p: p,
		rnd:    rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		intent: make([]uint64, n), pay: [][]uint64{make([]uint64, n)},
		heard: make([]uint64, n), sym: [][]uint64{make([]uint64, n)},
	}
	d.k.Reset()
	return d
}

func (d *laneDrive) step(round int) {
	clear(d.intent)
	clear(d.pay[0])
	clear(d.heard)
	clear(d.sym[0])
	d.k.Transmit(round, d.intent, d.pay)
	for v, kids := range d.tree.Children {
		if d.intent[v] == 0 {
			continue
		}
		var fault uint64
		for lane := 0; lane < 64; lane++ {
			if d.rnd.Float64() < d.p {
				fault |= 1 << lane
			}
		}
		for _, c := range kids {
			d.heard[c] = d.intent[v]
			d.sym[0][c] = (d.pay[0][v] ^ fault) & d.intent[v]
		}
	}
	d.k.Absorb(round, d.heard, d.sym)
}

// TestLaneKernelsShareProgram: the lane instruction tables are compiled
// once per Proto and shared, so two kernels from one Proto stepped in
// lockstep — their rounds interleaved — must reach the verdicts each
// reaches when run apart. The plan is sized for p = 0.1 and driven at
// p = 0.4, so each block mixes failed and successful trials.
func TestLaneKernelsShareProgram(t *testing.T) {
	g := graph.KaryTree(15, 2)
	const p = 0.4
	plan, err := PlanForGraph(g, 0, 0.1, 1.5, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{3, 11}
	apart := make([]uint64, len(seeds))
	for i, seed := range seeds {
		proto, err := New(g, 0, plan)
		if err != nil {
			t.Fatal(err)
		}
		d := newLaneDrive(proto, p, seed)
		for r := 0; r < proto.Rounds(); r++ {
			d.step(r)
		}
		apart[i] = d.k.Verdict()
	}
	if apart[0] == apart[1] {
		t.Fatalf("both blocks gave verdict %#x; the drive does not tell the kernels apart", apart[0])
	}
	for i, v := range apart {
		if n := bits.OnesCount64(v); n == 0 || n == 64 {
			t.Fatalf("block %d: %d of 64 lanes succeed; want a mix of outcomes", i, n)
		}
	}

	proto, err := New(g, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	drives := []*laneDrive{newLaneDrive(proto, p, seeds[0]), newLaneDrive(proto, p, seeds[1])}
	for r := 0; r < proto.Rounds(); r++ {
		for _, d := range drives {
			d.step(r)
		}
	}
	for i, d := range drives {
		if got := d.k.Verdict(); got != apart[i] {
			t.Errorf("kernel %d: interleaved verdict %#x, run apart %#x", i, got, apart[i])
		}
	}
}
