package kucera

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"faultcast/internal/adversary"
	"faultcast/internal/graph"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
)

func TestGuaranteeBase(t *testing.T) {
	g := Base(0.3)
	if g.Length != 1 || g.Time != 1 || g.Delay != 1 || g.Err != 0.3 {
		t.Fatalf("base = %v", g)
	}
}

// TestCO1Algebra checks composition rule [CO1] exactly:
// A(n,τ,δ,Q) => A(ρn, ρτ, δ, 1-(1-Q)^ρ).
func TestCO1Algebra(t *testing.T) {
	g := Guarantee{Length: 3, Time: 7, Delay: 2, Err: 0.1}
	s := Serial(g, 4)
	if s.Length != 12 || s.Time != 28 || s.Delay != 2 {
		t.Fatalf("serial = %v", s)
	}
	want := 1 - math.Pow(0.9, 4)
	if math.Abs(s.Err-want) > 1e-12 {
		t.Fatalf("serial err = %v, want %v", s.Err, want)
	}
}

// TestCO2Algebra checks composition rule [CO2] exactly:
// A(n,τ,δ,Q) => A(n, τ+(κ-1)δ, κδ, Σ_{j>=κ/2} C(κ,j) Q^j (1-Q)^{κ-j}).
func TestCO2Algebra(t *testing.T) {
	g := Guarantee{Length: 3, Time: 7, Delay: 2, Err: 0.1}
	r := Repeat(g, 5)
	if r.Length != 3 || r.Time != 7+4*2 || r.Delay != 10 {
		t.Fatalf("repeat = %v", r)
	}
	// Σ_{j>=3} C(5,j) 0.1^j 0.9^(5-j)
	want := 10*math.Pow(0.1, 3)*math.Pow(0.9, 2) + 5*math.Pow(0.1, 4)*0.9 + math.Pow(0.1, 5)
	if math.Abs(r.Err-want) > 1e-12 {
		t.Fatalf("repeat err = %v, want %v", r.Err, want)
	}
}

func TestBuildPlanRejectsBadInput(t *testing.T) {
	if _, err := BuildPlan(10, 0.5, Options{}); err == nil {
		t.Fatal("p=0.5 accepted")
	}
	if _, err := BuildPlan(0, 0.1, Options{}); err == nil {
		t.Fatal("length 0 accepted")
	}
	if _, err := BuildPlan(10, 0.1, Options{Kappa: 4}); err == nil {
		t.Fatal("even kappa accepted")
	}
	if _, err := BuildPlan(10, 0.1, Options{Rho: 1}); err == nil {
		t.Fatal("rho 1 accepted")
	}
}

func TestBuildPlanCoversLength(t *testing.T) {
	for _, l := range []int{1, 2, 7, 8, 9, 64, 100} {
		plan, err := BuildPlan(l, 0.2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.G.Length < l {
			t.Fatalf("L=%d: plan covers only %d", l, plan.G.Length)
		}
		if plan.G.Err > 0.01 {
			t.Fatalf("L=%d: plan error %v too large", l, plan.G.Err)
		}
	}
}

// TestTimeLinearInL verifies the O(L) time shape of Lemma 3.2: the
// time/length ratio stays bounded as L grows.
func TestTimeLinearInL(t *testing.T) {
	var ratios []float64
	for _, l := range []int{8, 64, 512} {
		plan, err := BuildPlan(l, 0.2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, float64(plan.G.Time)/float64(plan.G.Length))
	}
	// With ρ=8, κ=3 the per-level time factor approaches ρ·(1 + o(1)), so
	// the ratio should converge; allow it to at most double from first to
	// last measurement.
	if ratios[2] > 2*ratios[0] {
		t.Fatalf("time not linear in L: ratios %v", ratios)
	}
}

// TestErrShrinksWithL: the composed error decreases in L (doubly
// exponentially in the number of levels), giving e^(-Ω(L^c)).
func TestErrShrinksWithL(t *testing.T) {
	prev := 1.0
	for _, l := range []int{8, 64, 512} {
		plan, err := BuildPlan(l, 0.25, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.G.Err >= prev {
			t.Fatalf("error did not shrink at L=%d: %v >= %v", l, plan.G.Err, prev)
		}
		prev = plan.G.Err
	}
}

func TestBootKappa(t *testing.T) {
	k, err := bootKappa(0.25, 1/400.0)
	if err != nil {
		t.Fatal(err)
	}
	if k%2 != 1 {
		t.Fatalf("bootstrap κ=%d not odd", k)
	}
	if e := stat.MajorityErr(k, 0.25); e > 1/400.0 {
		t.Fatalf("κ=%d error %v > target", k, e)
	}
	if k > 2 {
		if e := stat.MajorityErr(k-2, 0.25); e <= 1/400.0 {
			t.Fatalf("κ=%d not minimal", k)
		}
	}
	if k0, _ := bootKappa(0, 0.5); k0 != 1 {
		t.Fatalf("p=0 bootstrap κ=%d, want 1", k0)
	}
}

// linearBootKappa is the reference scan bootKappa's bisection replaces:
// the first odd κ whose majority error meets the target.
func linearBootKappa(p, target float64) int {
	if p == 0 {
		return 1
	}
	for kappa := 1; ; kappa += 2 {
		if stat.MajorityErr(kappa, p) <= target {
			return kappa
		}
	}
}

// TestBootKappaMatchesLinearScan: the exponential + binary search finds
// the same bootstrap count as the linear scan on a fine grid of failure
// rates (at the default bootstrap target and a looser one) and at the
// Composed curve cells' rates.
func TestBootKappaMatchesLinearScan(t *testing.T) {
	var opts Options
	opts.defaults()
	ps := []float64{0.10, 0.20, 0.30, 0.35}
	for i := 1; i <= 450; i++ {
		ps = append(ps, float64(i)/1000)
	}
	for _, target := range []float64{opts.BootErr, 1 / 400.0} {
		for _, p := range ps {
			got, err := bootKappa(p, target)
			if err != nil {
				t.Fatalf("p=%v target=%v: %v", p, target, err)
			}
			if want := linearBootKappa(p, target); got != want {
				t.Fatalf("p=%v target=%v: bisection κ=%d, linear scan κ=%d", p, target, got, want)
			}
		}
	}
	// The search gives up past its cap instead of spinning.
	if _, err := bootKappa(0.4999999, 1e-12); err == nil {
		t.Fatal("unreachable bootstrap target accepted")
	}
}

// TestNewCompilesTreeDepthsOnly: New materializes only the positions the
// BFS tree's vertices play. Its program must equal the full line
// program restricted to depths 0..height — instruction for instruction,
// up to a consistent renaming of registers — except for the depth-height
// sends (nobody receives them), with the same horizon and guarantee, and
// every table at its exact size.
func TestNewCompilesTreeDepthsOnly(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"line:1": graph.Line(1), "line:2": graph.Line(2), "line:9": graph.Line(9),
		"line:33": graph.Line(33), "grid:3x3": graph.Grid(3, 3), "grid:6x6": graph.Grid(6, 6),
		"kary:15,2": graph.KaryTree(15, 2), "kary:40,3": graph.KaryTree(40, 3),
	}
	for name, g := range graphs {
		for _, p := range []float64{0, 0.1, 0.25, 0.35} {
			height := graph.BFSTree(g, 0).Height()
			padded, err := PlanForGraph(g, 0, p, 1.5, 1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			plans := []*Plan{padded}
			if height > 0 {
				exact, err := BuildPlan(height, p, Options{})
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, exact)
			}
			for _, plan := range plans {
				proto, err := New(g, 0, plan)
				if err != nil {
					t.Fatal(err)
				}
				full, err := Compile(plan)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameTreeDepths(proto.Program(), full, height); err != nil {
					t.Errorf("%s p=%v plan %s: %v", name, p, plan, err)
				}
			}
		}
	}
}

// sameTreeDepths compares got, compiled to depth height, against the full
// program want restricted to the same depths.
func sameTreeDepths(got, want *Program, height int) error {
	if len(got.Positions) != height+1 {
		return fmt.Errorf("%d positions, want %d", len(got.Positions), height+1)
	}
	if got.Rounds != want.Rounds || got.Guar != want.Guar {
		return fmt.Errorf("horizon %d %v, want %d %v", got.Rounds, got.Guar, want.Rounds, want.Guar)
	}
	fw, bw := map[int]int{}, map[int]int{}
	same := func(g, w int) bool {
		if r, ok := fw[w]; ok {
			return r == g
		}
		if r, ok := bw[g]; ok {
			return r == w
		}
		fw[w], bw[g] = g, w
		return true
	}
	for pos := 0; pos <= height; pos++ {
		gp, wp := &got.Positions[pos], &want.Positions[pos]
		if cap(gp.Sends) != len(gp.Sends) || cap(gp.Recvs) != len(gp.Recvs) || cap(gp.Combines) != len(gp.Combines) {
			return fmt.Errorf("position %d: tables not exact-size", pos)
		}
		wantSends := wp.Sends
		if pos == height {
			wantSends = nil
		}
		if len(gp.Sends) != len(wantSends) || len(gp.Recvs) != len(wp.Recvs) || len(gp.Combines) != len(wp.Combines) {
			return fmt.Errorf("position %d: %d/%d/%d sends/receives/combines, want %d/%d/%d", pos,
				len(gp.Sends), len(gp.Recvs), len(gp.Combines), len(wantSends), len(wp.Recvs), len(wp.Combines))
		}
		if !same(gp.FinalReg, wp.FinalReg) {
			return fmt.Errorf("position %d: final register differs", pos)
		}
		for i, s := range gp.Sends {
			if s.Round != wantSends[i].Round || !same(s.Reg, wantSends[i].Reg) {
				return fmt.Errorf("position %d: send %d is %+v, want %+v", pos, i, s, wantSends[i])
			}
		}
		for i, r := range gp.Recvs {
			if r.Round != wp.Recvs[i].Round || !same(r.Reg, wp.Recvs[i].Reg) {
				return fmt.Errorf("position %d: receive %d is %+v, want %+v", pos, i, r, wp.Recvs[i])
			}
		}
		for i, c := range gp.Combines {
			w := wp.Combines[i]
			if c.Round != w.Round || !same(c.Dst, w.Dst) || len(c.Srcs) != len(w.Srcs) {
				return fmt.Errorf("position %d: combine %d is %+v, want %+v", pos, i, c, w)
			}
			for j := range c.Srcs {
				if !same(c.Srcs[j], w.Srcs[j]) {
					return fmt.Errorf("position %d: combine %d source %d differs", pos, i, j)
				}
			}
		}
	}
	return nil
}

func TestPlanString(t *testing.T) {
	plan, err := BuildPlan(8, 0.2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	if len(s) == 0 || s[0] != 'R' {
		t.Fatalf("plan string %q should start with the outer repetition", s)
	}
}

func TestCompileInvariants(t *testing.T) {
	plan, err := BuildPlan(16, 0.2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Positions) != plan.G.Length+1 {
		t.Fatalf("positions = %d, want %d", len(prog.Positions), plan.G.Length+1)
	}
	if prog.Rounds != plan.G.Time {
		t.Fatalf("compiled horizon %d != guarantee time %d", prog.Rounds, plan.G.Time)
	}
	// Position 0 sends but never receives; the last position receives but
	// never sends.
	if len(prog.Positions[0].Recvs) != 0 {
		t.Fatal("source has receive instructions")
	}
	if len(prog.Positions[0].Sends) == 0 {
		t.Fatal("source never sends")
	}
	last := prog.Positions[len(prog.Positions)-1]
	if len(last.Sends) != 0 {
		t.Fatal("last position has sends")
	}
	if len(last.Recvs) == 0 || len(last.Combines) == 0 {
		t.Fatal("last position missing receives or combines")
	}
}

// TestCompilePropertyNoCollisions: for random lengths and failure rates,
// compilation succeeds (unique (position, round) send slots are validated
// inside Compile).
func TestCompilePropertyNoCollisions(t *testing.T) {
	check := func(lRaw uint8, pRaw uint8) bool {
		l := 1 + int(lRaw%40)
		p := float64(pRaw%30) / 100 // 0 .. 0.29
		plan, err := BuildPlan(l, p, Options{})
		if err != nil {
			return false
		}
		_, err = Compile(plan)
		return err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func runLine(t *testing.T, n int, p float64, seed uint64) bool {
	t.Helper()
	g := graph.Line(n)
	plan, err := BuildPlan(n-1, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(g, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &sim.Config{
		Graph: g, Model: sim.MessagePassing, Fault: sim.LimitedMalicious, P: p,
		Source: 0, SourceMsg: []byte("1"),
		NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: seed,
		Adversary: adversary.Flip{Wrong: []byte("0")},
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Success
}

func TestFaultFreeLine(t *testing.T) {
	for _, n := range []int{2, 3, 9, 20} {
		g := graph.Line(n)
		plan, err := BuildPlan(n-1, 0.2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		proto, err := New(g, 0, plan)
		if err != nil {
			t.Fatal(err)
		}
		cfg := &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.NoFaults,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: 1,
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("n=%d: fault-free run failed at node %d (outputs %q)", n, res.FirstFailed, res.Outputs)
		}
	}
}

// TestLemma32Line: limited malicious failures at p = 0.25 on a line, with
// a worst-case flipping adversary — success rate must beat 1 - 1/n.
func TestLemma32Line(t *testing.T) {
	n := 17
	est := stat.Estimate(150, 400, func(seed uint64) bool {
		return runLine(t, n, 0.25, seed)
	})
	lo, _ := est.Wilson(1.96)
	if lo < 1-1.0/float64(n) {
		t.Errorf("line(%d) p=0.25: success %v, want >= %.4f", n, est, 1-1.0/float64(n))
	}
}

// TestTheorem32Tree: the tree extension on a branching graph.
func TestTheorem32Tree(t *testing.T) {
	g := graph.KaryTree(15, 2)
	plan, err := PlanForGraph(g, 0, 0.2, 1.5, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(g, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	est := stat.Estimate(150, 800, func(seed uint64) bool {
		cfg := &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.LimitedMalicious, P: 0.2,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: seed,
			Adversary: adversary.Flip{Wrong: []byte("0")},
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Error(err)
			return false
		}
		return res.Success
	})
	n := float64(g.N())
	lo, _ := est.Wilson(1.96)
	if lo < 1-1/n {
		t.Errorf("tree: success %v, want >= %.4f", est, 1-1/n)
	}
}

// TestDropAdversary: the crash (drop) adversary is also covered by the
// limited malicious model; dropped transmissions read as the default at
// receivers and the majority machinery must still win.
func TestDropAdversary(t *testing.T) {
	g := graph.Line(9)
	plan, err := BuildPlan(8, 0.25, Options{})
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(g, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	est := stat.Estimate(150, 1200, func(seed uint64) bool {
		cfg := &sim.Config{
			Graph: g, Model: sim.MessagePassing, Fault: sim.LimitedMalicious, P: 0.25,
			Source: 0, SourceMsg: []byte("1"),
			NewNode: proto.NewNode, Rounds: proto.Rounds(), Seed: seed,
			Adversary: adversary.Crash{},
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Error(err)
			return false
		}
		return res.Success
	})
	if est.Rate() < 1-1.0/9 {
		t.Errorf("drop adversary: success %v", est)
	}
}

func TestNewRejectsShortPlan(t *testing.T) {
	g := graph.Line(10)
	plan, err := BuildPlan(2, 0.2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.G.Length >= 9 {
		t.Skip("plan overshoot covers the tree; cannot test rejection")
	}
	if _, err := New(g, 0, plan); err == nil {
		t.Fatal("short plan accepted")
	}
}

func TestPlanForGraphRejectsAlpha(t *testing.T) {
	if _, err := PlanForGraph(graph.Line(4), 0, 0.2, 1.0, 1, Options{}); err == nil {
		t.Fatal("alpha=1 accepted")
	}
}
