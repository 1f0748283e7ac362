// Package kucera implements broadcasting over a line (and, via the
// Theorem 3.2 extension, over the branches of a BFS tree) under limited
// malicious transmission failures with p < 1/2, following the composition
// framework of Kučera's algorithm as quoted in Section 3 of the paper.
//
// The paper's statement A_p(n, τ, δ, Q) — "for the line L_n with failure
// probability p there is a broadcast algorithm of time τ, delay δ, and
// failure probability at most Q" — is modeled by Guarantee. Two
// composition rules transform guarantees:
//
//	[CO1] Serial:  A_p(n, τ, δ, Q)  ⇒  A_p(ρn, ρτ, δ, 1−(1−Q)^ρ)
//	[CO2] Repeat:  A_p(n, τ, δ, Q)  ⇒  A_p(n, τ+(κ−1)δ, κδ, Σ_{j≥κ/2} C(κ,j)Q^j(1−Q)^(κ−j))
//
// A Plan is an expression tree over these rules; Compile lowers a plan to
// per-position instruction tables executed by the runtime protocol in
// proto.go (New compiles only the positions its BFS tree's depths play;
// the horizon and guarantee stay those of the whole plan). The planner
// (BuildPlan) bootstraps reliability with one large repetition, then
// alternates Serial(ρ) and Repeat(3); the resulting time is O(L) and the
// error e^(−Ω(L^c)) for c = log_ρ 2 < 1, exactly the shape of Lemma 3.2.
package kucera

import (
	"fmt"
	"math"

	"faultcast/internal/stat"
)

// Guarantee is the paper's A_p(n, τ, δ, Q): an algorithm for the line of
// Length edges, running in Time rounds, with per-node activity window
// (delay) Delay, and failure probability at most Err.
type Guarantee struct {
	Length int
	Time   int
	Delay  int
	Err    float64
}

// Base returns the guarantee of the trivial one-edge, one-step protocol:
// A_p(1, 1, 1, p).
func Base(p float64) Guarantee {
	return Guarantee{Length: 1, Time: 1, Delay: 1, Err: p}
}

// Serial applies composition rule [CO1]: chain ρ copies of the protocol,
// starting copy j at time j·τ. Length and time multiply by ρ; delay is
// unchanged; the chain fails if any segment fails.
func Serial(g Guarantee, rho int) Guarantee {
	if rho < 1 {
		panic("kucera: serial composition needs rho >= 1")
	}
	return Guarantee{
		Length: g.Length * rho,
		Time:   g.Time * rho,
		Delay:  g.Delay,
		Err:    1 - math.Pow(1-g.Err, float64(rho)),
	}
}

// Repeat applies composition rule [CO2]: run the protocol κ times with
// delay δ between successive executions and take the majority at the far
// end. Time becomes τ+(κ−1)δ, delay κδ, and the error the binomial
// majority tail (ties counted as errors).
func Repeat(g Guarantee, kappa int) Guarantee {
	if kappa < 1 {
		panic("kucera: repetition needs kappa >= 1")
	}
	return Guarantee{
		Length: g.Length,
		Time:   g.Time + (kappa-1)*g.Delay,
		Delay:  kappa * g.Delay,
		Err:    stat.MajorityErr(kappa, g.Err),
	}
}

// String renders the guarantee compactly.
func (g Guarantee) String() string {
	return fmt.Sprintf("A(n=%d, τ=%d, δ=%d, Q=%.3g)", g.Length, g.Time, g.Delay, g.Err)
}
