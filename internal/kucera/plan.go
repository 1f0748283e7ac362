package kucera

import (
	"fmt"
	"strings"

	"faultcast/internal/stat"
)

// PlanKind discriminates plan tree nodes.
type PlanKind int

const (
	// KindBase is the one-edge, one-step transfer.
	KindBase PlanKind = iota
	// KindSerial chains Count copies of Sub ([CO1]).
	KindSerial
	// KindRepeat runs Sub Count times and takes a majority ([CO2]).
	KindRepeat
)

// Plan is an expression tree over the composition rules. G caches the
// guarantee of the subtree.
type Plan struct {
	Kind  PlanKind
	Sub   *Plan
	Count int
	G     Guarantee
}

// base returns the Base plan leaf.
func basePlan(p float64) *Plan {
	return &Plan{Kind: KindBase, G: Base(p)}
}

// serialPlan wraps sub in a [CO1] chain.
func serialPlan(sub *Plan, rho int) *Plan {
	return &Plan{Kind: KindSerial, Sub: sub, Count: rho, G: Serial(sub.G, rho)}
}

// repeatPlan wraps sub in a [CO2] repetition.
func repeatPlan(sub *Plan, kappa int) *Plan {
	return &Plan{Kind: KindRepeat, Sub: sub, Count: kappa, G: Repeat(sub.G, kappa)}
}

// Options tunes BuildPlan. The zero value selects the defaults.
type Options struct {
	// Rho is the serial fan-out per level (default 8). Larger ρ improves
	// the time constant towards O(L) but weakens the error exponent
	// c = log_ρ 2 of e^(−Ω(L^c)).
	Rho int
	// Kappa is the per-level repetition (default 3; must be odd and >= 3).
	Kappa int
	// BootErr is the reliability the bootstrap repetition must reach
	// before leveling starts (default 1/(6·ρ²·2), giving the Q → 3(ρQ)²
	// recursion a 1/2 contraction factor per level).
	BootErr float64
}

func (o *Options) defaults() {
	if o.Rho == 0 {
		o.Rho = 8
	}
	if o.Kappa == 0 {
		o.Kappa = 3
	}
	if o.BootErr == 0 {
		o.BootErr = 1 / (12 * float64(o.Rho) * float64(o.Rho))
	}
}

// BuildPlan constructs a plan covering a line of at least length edges
// (the compiled protocol may legally run on any shorter line — trailing
// positions simply do not exist). It returns an error if p >= 1/2, where
// Lemma 3.2 does not apply and no repetition count can bootstrap.
func BuildPlan(length int, p float64, opts Options) (*Plan, error) {
	if length < 1 {
		return nil, fmt.Errorf("kucera: length %d < 1", length)
	}
	if p < 0 || p >= 0.5 {
		return nil, fmt.Errorf("kucera: failure probability %v outside [0, 1/2)", p)
	}
	opts.defaults()
	if opts.Kappa < 3 || opts.Kappa%2 == 0 {
		return nil, fmt.Errorf("kucera: kappa must be odd and >= 3, got %d", opts.Kappa)
	}
	if opts.Rho < 2 {
		return nil, fmt.Errorf("kucera: rho must be >= 2, got %d", opts.Rho)
	}

	// Bootstrap: repeat the one-step edge protocol until the majority
	// error drops below BootErr. The count is a constant depending only on
	// p (and the options), so the bootstrap adds O(1) time per level-0
	// segment.
	kappa0, err := bootKappa(p, opts.BootErr)
	if err != nil {
		return nil, err
	}
	plan := repeatPlan(basePlan(p), kappa0)

	// Leveling: alternate Serial(ρ) and Repeat(κ) until the plan covers
	// the requested length. Each level multiplies length by ρ, time by
	// ~ρ(1+κ/ρ), and squares the (scaled) error:
	// Q_{i+1} ≈ κ(ρ·Q_i)² < Q_i/2 once Q_i < BootErr.
	for plan.G.Length < length {
		rho := opts.Rho
		if need := (length + plan.G.Length - 1) / plan.G.Length; need < rho {
			rho = need // final level: don't overshoot more than necessary
		}
		plan = serialPlan(plan, rho)
		plan = repeatPlan(plan, opts.Kappa)
	}
	return plan, nil
}

// bootKappa returns the smallest odd κ with MajorityErr(κ, p) <= target.
// MajorityErr decreases in odd κ for p < 1/2, so the search doubles an
// upper bound and then bisects: O(log κ) evaluations of O(κ) each, where
// a linear scan would take O(κ²) — κ grows like 1/(1/2−p)² as p nears
// 1/2.
func bootKappa(p, target float64) (int, error) {
	if p == 0 {
		return 1, nil
	}
	const maxKappa = 100001
	// Search over m, κ = 2m+1; invariant: κ(lo) misses the target.
	ok := func(m int) bool { return stat.MajorityErr(2*m+1, p) <= target }
	if ok(0) {
		return 1, nil
	}
	lo, hi := 0, 1
	for !ok(hi) {
		if 2*hi+1 >= maxKappa {
			return 0, fmt.Errorf("kucera: cannot bootstrap below error %v at p=%v within κ=%d", target, p, maxKappa)
		}
		lo, hi = hi, min(2*hi, (maxKappa-1)/2)
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if ok(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 2*hi + 1, nil
}

// String renders the plan structure, e.g. "R3(S8(R21(base)))".
func (pl *Plan) String() string {
	var b strings.Builder
	pl.render(&b)
	return b.String()
}

func (pl *Plan) render(b *strings.Builder) {
	switch pl.Kind {
	case KindBase:
		b.WriteString("base")
	case KindSerial:
		fmt.Fprintf(b, "S%d(", pl.Count)
		pl.Sub.render(b)
		b.WriteByte(')')
	case KindRepeat:
		fmt.Fprintf(b, "R%d(", pl.Count)
		pl.Sub.render(b)
		b.WriteByte(')')
	}
}
