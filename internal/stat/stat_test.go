package stat

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRadioThresholdSolvesEquation(t *testing.T) {
	for delta := 0; delta <= 40; delta++ {
		p := RadioThreshold(delta)
		if p <= 0 || p >= 1 {
			t.Fatalf("Δ=%d: p* = %v out of (0,1)", delta, p)
		}
		lhs, rhs := p, math.Pow(1-p, float64(delta+1))
		if math.Abs(lhs-rhs) > 1e-12 {
			t.Fatalf("Δ=%d: p=%v vs (1-p)^(Δ+1)=%v", delta, lhs, rhs)
		}
	}
}

func TestRadioThresholdKnownValues(t *testing.T) {
	// Δ=0: p = 1-p -> 1/2. Δ=1: p = (1-p)² -> p = (3-√5)/2 ≈ 0.381966.
	if p := RadioThreshold(0); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("Δ=0: %v", p)
	}
	want := (3 - math.Sqrt(5)) / 2
	if p := RadioThreshold(1); math.Abs(p-want) > 1e-12 {
		t.Fatalf("Δ=1: %v, want %v", p, want)
	}
}

func TestRadioThresholdMonotone(t *testing.T) {
	prev := 1.0
	for delta := 0; delta < 30; delta++ {
		p := RadioThreshold(delta)
		if p >= prev {
			t.Fatalf("threshold not strictly decreasing at Δ=%d: %v >= %v", delta, p, prev)
		}
		prev = p
	}
}

// referenceRadioThreshold is an un-memoised copy of the bisection, the
// oracle the memo table must reproduce bit for bit.
func referenceRadioThreshold(delta int) float64 {
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

// TestRadioThresholdMemoBitIdentical: memoised values, first computation
// and repeat lookups alike, are the exact float64 the bisection yields —
// across the memo table and past its end.
func TestRadioThresholdMemoBitIdentical(t *testing.T) {
	degrees := []int{1023, 1024, 1025, 4096}
	for delta := 0; delta <= 256; delta++ {
		degrees = append(degrees, delta)
	}
	for pass := 0; pass < 2; pass++ {
		for _, delta := range degrees {
			got, want := RadioThreshold(delta), referenceRadioThreshold(delta)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pass %d, Δ=%d: memoised %v (%#x), bisection %v (%#x)",
					pass, delta, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestRadioThresholdConcurrent hammers the memo table from several
// goroutines over fresh and already-filled degrees, so the -race run
// covers the lazily filled slots.
func TestRadioThresholdConcurrent(t *testing.T) {
	const workers = 8
	want := make(map[int]uint64)
	for _, delta := range []int{3, 300, 700, 1000, 1023} {
		want[delta] = math.Float64bits(referenceRadioThreshold(delta))
	}
	var bad atomic.Int64
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				for delta, bits := range want {
					if math.Float64bits(RadioThreshold(delta)) != bits {
						bad.Add(1)
					}
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d concurrent lookups returned a value other than the bisection's", n)
	}
}

func TestBinomTailExactSmall(t *testing.T) {
	// Bin(2, 0.5): P(X>=1) = 0.75, P(X>=2) = 0.25.
	if got := BinomTail(2, 1, 0.5); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("P(Bin(2,.5)>=1) = %v", got)
	}
	if got := BinomTail(2, 2, 0.5); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("P(Bin(2,.5)>=2) = %v", got)
	}
	if got := BinomTail(5, 0, 0.3); got != 1 {
		t.Fatalf("P(X>=0) = %v", got)
	}
	if got := BinomTail(5, 6, 0.3); got != 0 {
		t.Fatalf("P(X>=6) = %v", got)
	}
}

// Property: BinomTail is decreasing in k and increasing in q.
func TestBinomTailMonotone(t *testing.T) {
	check := func(nRaw, kRaw uint8, qRaw uint16) bool {
		n := 1 + int(nRaw%30)
		k := int(kRaw) % (n + 1)
		q := float64(qRaw%999+1) / 1000
		tail := BinomTail(n, k, q)
		if k+1 <= n && BinomTail(n, k+1, q) > tail+1e-12 {
			return false
		}
		if q+0.05 < 1 && BinomTail(n, k, q+0.05) < tail-1e-12 {
			return false
		}
		return tail >= 0 && tail <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMajorityErrShrinksWithKappa(t *testing.T) {
	q := 0.3
	prev := 1.0
	for _, kappa := range []int{1, 3, 5, 9, 15, 25, 45} {
		e := MajorityErr(kappa, q)
		if e > prev {
			t.Fatalf("majority error grew at κ=%d: %v > %v", kappa, e, prev)
		}
		prev = e
	}
	if prev > 0.005 {
		t.Fatalf("κ=45 at q=0.3 should be far below 0.5%%: %v", prev)
	}
}

func TestMajorityErrAboveHalfUseless(t *testing.T) {
	// For q > 1/2, repetition cannot help: error stays >= ~1/2.
	if e := MajorityErr(101, 0.6); e < 0.5 {
		t.Fatalf("majority with q=0.6 improved: %v", e)
	}
}

func TestChoose(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {6, 3, 20}, {10, 11, 0}, {4, -1, 0},
	}
	for _, tc := range cases {
		if got := Choose(tc.n, tc.k); got != float64(tc.want) {
			t.Errorf("C(%d,%d) = %v, want %d", tc.n, tc.k, got, tc.want)
		}
	}
}

func TestChernoffBelowHalf(t *testing.T) {
	if b := ChernoffBelowHalf(100, 0.3); b >= BinomTail(100, 50, 0.3)*1e6 && b > 1e-3 {
		t.Fatalf("Chernoff bound implausible: %v", b)
	}
	// The bound must actually bound the exact tail.
	for _, q := range []float64{0.1, 0.25, 0.4} {
		for _, n := range []int{10, 50, 200} {
			exact := BinomTail(n, (n+1)/2, q)
			bound := ChernoffBelowHalf(n, q)
			if exact > bound+1e-12 {
				t.Fatalf("Chernoff violated: n=%d q=%v exact=%v bound=%v", n, q, exact, bound)
			}
		}
	}
	if ChernoffBelowHalf(10, 0.6) != 1 {
		t.Fatal("q>=0.5 should return the trivial bound 1")
	}
}

func TestProportionRateAndWilson(t *testing.T) {
	p := Proportion{Successes: 90, Trials: 100}
	if p.Rate() != 0.9 {
		t.Fatalf("rate = %v", p.Rate())
	}
	lo, hi := p.Wilson(1.96)
	if !(lo < 0.9 && 0.9 < hi) {
		t.Fatalf("interval [%v,%v] excludes the point estimate", lo, hi)
	}
	if lo < 0.8 || hi > 0.96 {
		t.Fatalf("interval [%v,%v] implausibly wide", lo, hi)
	}
	// Extremes stay in [0,1].
	lo, hi = Proportion{Successes: 0, Trials: 50}.Wilson(1.96)
	if lo != 0 || hi <= 0 || hi > 0.2 {
		t.Fatalf("all-fail interval [%v,%v]", lo, hi)
	}
	lo, hi = Proportion{Successes: 50, Trials: 50}.Wilson(1.96)
	if hi != 1 || lo < 0.8 {
		t.Fatalf("all-pass interval [%v,%v]", lo, hi)
	}
}

// TestWilsonExactAtExtremes: the closed form puts an all-success
// sample's upper bound at exactly 1 and a zero-success sample's lower
// bound at exactly 0, for every sample size and band; the float
// evaluation lands a few ulps inside for many of them (n = 6 at z = 1.96
// gives 1 − 1.1e−16).
func TestWilsonExactAtExtremes(t *testing.T) {
	for _, z := range []float64{1.96, 2.576, 3.29, 1.96 * 1.3, 2.576 * 1.3} {
		for n := 1; n <= 5000; n++ {
			if _, hi := (Proportion{Successes: n, Trials: n}).Wilson(z); hi != 1 {
				t.Fatalf("z=%v n=%d all-success: hi = 1%+g, want 1", z, n, hi-1)
			}
			if lo, _ := (Proportion{Successes: 0, Trials: n}).Wilson(z); lo != 0 {
				t.Fatalf("z=%v n=%d zero-success: lo = %g, want 0", z, n, lo)
			}
		}
	}
}

func TestProportionEmpty(t *testing.T) {
	p := Proportion{}
	if !math.IsNaN(p.Rate()) {
		t.Fatal("empty proportion should have NaN rate")
	}
	lo, hi := p.Wilson(1.96)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty interval [%v,%v]", lo, hi)
	}
}

func TestEstimateDeterministicAcrossParallelism(t *testing.T) {
	trial := func(seed uint64) bool { return seed%3 == 0 }
	shared := func() Trial { return trial }
	a := EstimateWith(1000, 5, 1, shared)
	b := EstimateWith(1000, 5, 8, shared)
	if a != b {
		t.Fatalf("parallelism changed the estimate: %v vs %v", a, b)
	}
	// seeds 5..1004: multiples of 3 in that range.
	want := 0
	for s := uint64(5); s < 1005; s++ {
		if s%3 == 0 {
			want++
		}
	}
	if a.Successes != want {
		t.Fatalf("successes = %d, want %d", a.Successes, want)
	}
}

func TestEstimateRunsAllTrials(t *testing.T) {
	var calls atomic.Int64
	Estimate(257, 0, func(seed uint64) bool {
		calls.Add(1)
		return true
	})
	if calls.Load() != 257 {
		t.Fatalf("ran %d trials, want 257", calls.Load())
	}
}

func TestEstimateZeroTrials(t *testing.T) {
	p := Estimate(0, 0, func(uint64) bool { return true })
	if p.Trials != 0 {
		t.Fatalf("zero trials: %v", p)
	}
}

func TestMeanStd(t *testing.T) {
	mean, std, failed := MeanStd(100, 0, func(seed uint64) (float64, bool) {
		if seed%10 == 9 {
			return 0, false
		}
		return float64(seed % 3), true // values 0,1,2 roughly uniform
	})
	if failed != 10 {
		t.Fatalf("failed = %d, want 10", failed)
	}
	if mean < 0.7 || mean > 1.3 {
		t.Fatalf("mean = %v", mean)
	}
	if std < 0.5 || std > 1.1 {
		t.Fatalf("std = %v", std)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 2x + 1
	slope, intercept, r2 := LinearFit(x, y)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 || r2 < 1-1e-12 {
		t.Fatalf("fit: slope=%v intercept=%v r2=%v", slope, intercept, r2)
	}
}

func TestLinearFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("constant x did not panic")
		}
	}()
	LinearFit([]float64{1, 1}, []float64{2, 3})
}
