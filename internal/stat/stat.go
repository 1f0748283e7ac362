package stat

import (
	"fmt"
	"math"
	"sync/atomic"
)

// radioMemo caches RadioThreshold per degree. A slot holds
// math.Float64bits(p*), with 0 meaning "not computed yet" (p* > 0, so no
// computed value encodes as 0). Racing first callers compute the same
// value and store the same bits, so the table needs no lock.
var radioMemo [1024]atomic.Uint64

// RadioThreshold returns the unique p* in (0, 1) solving
// p = (1−p)^(Δ+1). By Theorem 2.4, almost-safe broadcasting in the radio
// model with malicious failures on graphs of maximum degree Δ is feasible
// iff p < p*. The left side is increasing and the right side decreasing in
// p, so bisection converges to the unique crossing.
//
// For Δ below 1024 the bisection runs once per degree and later calls
// return the memoised value, bit-identical to a fresh bisection, so hot
// loops (the star adversary asks once per corrupted round) may call it
// freely. It is safe for concurrent use.
func RadioThreshold(delta int) float64 {
	if delta < 0 {
		panic("stat: negative degree")
	}
	if delta >= len(radioMemo) {
		return radioBisect(delta)
	}
	if b := radioMemo[delta].Load(); b != 0 {
		return math.Float64frombits(b)
	}
	p := radioBisect(delta)
	radioMemo[delta].Store(math.Float64bits(p))
	return p
}

// radioBisect is RadioThreshold's uncached 200-step bisection.
func radioBisect(delta int) float64 {
	f := func(p float64) float64 {
		return p - math.Pow(1-p, float64(delta+1))
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// BinomTail returns P(Bin(n, q) >= k), the upper tail of the binomial
// distribution — the exact form of the paper's composition rule [CO2]
// error: Q' = Σ_{j >= κ/2} C(κ, j) Q^j (1−Q)^{κ−j}.
func BinomTail(n, k int, q float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	// Sum exactly in log space per term to stay stable for small q.
	total := 0.0
	for j := k; j <= n; j++ {
		total += math.Exp(logChoose(n, j) + float64(j)*math.Log(q) + float64(n-j)*math.Log1p(-q))
	}
	if total > 1 {
		total = 1
	}
	return total
}

// MajorityErr returns the probability that a κ-fold majority vote over
// independent trials each wrong with probability q yields the wrong
// answer, counting ties as wrong (the conservative reading of [CO2]):
// P(Bin(κ, q) >= κ/2).
func MajorityErr(kappa int, q float64) float64 {
	return BinomTail(kappa, (kappa+1)/2, q)
}

// logChoose returns log C(n, k) via log-gamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// Choose returns C(n, k) as a float64 (exact for moderate n).
func Choose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	return math.Round(math.Exp(logChoose(n, k)))
}

// ChernoffBelowHalf bounds the probability that a Bin(n, q) variable with
// q < 1/2 reaches n/2: exp(−2n(1/2−q)²) (Hoeffding form). The paper's
// Theorem 2.2 analysis uses exactly this bound shape.
func ChernoffBelowHalf(n int, q float64) float64 {
	if q >= 0.5 {
		return 1
	}
	d := 0.5 - q
	return math.Exp(-2 * float64(n) * d * d)
}

// Proportion is an estimated success probability with its sampling
// uncertainty.
type Proportion struct {
	Successes int
	Trials    int
}

// Rate returns the point estimate.
func (p Proportion) Rate() float64 {
	if p.Trials == 0 {
		return math.NaN()
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Wilson returns the Wilson score interval at the given z (e.g. 1.96 for
// 95%). It behaves sensibly at the extremes 0 and 1, unlike the normal
// approximation.
func (p Proportion) Wilson(z float64) (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	n := float64(p.Trials)
	ph := p.Rate()
	z2 := z * z
	den := 1 + z2/n
	center := (ph + z2/(2*n)) / den
	half := z / den * math.Sqrt(ph*(1-ph)/n+z2/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// String renders the estimate with its 95% interval.
func (p Proportion) String() string {
	lo, hi := p.Wilson(1.96)
	return fmt.Sprintf("%.4f [%.4f, %.4f] (%d/%d)", p.Rate(), lo, hi, p.Successes, p.Trials)
}

// LinearFit returns the least-squares slope and intercept of y against x,
// plus the coefficient of determination R². Scaling experiments use it to
// check, e.g., that measured broadcast time grows linearly in D + log n.
func LinearFit(x, y []float64) (slope, intercept, r2 float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic("stat: LinearFit needs two same-length samples of size >= 2")
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("stat: LinearFit with constant x")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		r2 = 1
	} else {
		r2 = sxy * sxy / (sxx * syy)
	}
	return slope, intercept, r2
}
