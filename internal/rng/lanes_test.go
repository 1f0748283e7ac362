package rng

import (
	"math"
	"testing"
)

// allLive marks every word of a fill live, the dense sampler's contract.
var allLive = func() []uint64 {
	live := make([]uint64, 64)
	for i := range live {
		live[i] = ^uint64(0)
	}
	return live
}()

// TestBernoulliWordsMatchesScalarStreams is the RNG contract the lane-
// transposed simulation core's bit-identity rests on: for every lane L,
// the draw stream produced by BernoulliWords is identical — in value,
// number, and order — to Bernoulli(p) calls on an independent scalar
// Source seeded like that lane. The test drives both sides through many
// rounds of varying width, across the full p range including the
// no-consume edge cases, and cross-checks the residual streams afterwards
// so a hidden extra draw on either side would be caught.
//
// The p list includes the edges of the sampler's branch-free compare
// (the borrow of x − t·2¹¹): the smallest threshold t = 1 (p = 2⁻⁵³),
// the thresholds on either side of 1/2 and just below 1, and two p
// values whose t equals lane 0's first drawn x>>11 exactly and exceeds
// it by one, so the equal-operands case is decided on a real draw.
func TestBernoulliWordsMatchesScalarStreams(t *testing.T) {
	seedOf := func(lane int) uint64 { return 0x1234_5678_9abc_def0 + uint64(lane)*0x9e3779b97f4a7c15 }
	first := New(seedOf(0)).Uint64() >> 11 // lane 0's first 53-bit draw
	if first == 0 {
		t.Fatal("degenerate first draw; pick another seed")
	}
	onDraw := float64(first) / (1 << 53) // exact: t = first
	ps := []float64{0, -0.5, 1e-12, 0.05, 0.25, 0.5, 0.75, 0.97, 1 - 1e-12, 1, 1.5,
		math.Ldexp(1, -53), math.Nextafter(0.5, 0), math.Nextafter(1, 0),
		onDraw, float64(first+1) / (1 << 53)}
	if bernoulliThreshold(onDraw) != first {
		t.Fatalf("threshold of %v is %d, want the drawn %d", onDraw, bernoulliThreshold(onDraw), first)
	}
	// Round widths exercise n=0, sub-word, and multi-step accumulation.
	widths := []int{17, 0, 1, 64, 5, 33}
	for _, p := range ps {
		var seeds [LaneCount]uint64
		scalars := make([]*Source, LaneCount)
		for lane := range seeds {
			seeds[lane] = seedOf(lane)
			scalars[lane] = New(seeds[lane])
		}
		lanes := NewLanes(&seeds)
		out := make([]uint64, 64)
		for step, n := range widths {
			lanes.BernoulliWords(p, n, LaneCount, allLive, out)
			// The transposed sampler draws lane-major; the scalar reference
			// draws n values per lane. Compare draw i of lane L.
			for lane := 0; lane < LaneCount; lane++ {
				for i := 0; i < n; i++ {
					want := scalars[lane].Bernoulli(p)
					got := out[i]>>uint(lane)&1 == 1
					if got != want {
						t.Fatalf("p=%v step=%d lane=%d draw=%d: lanes=%v scalar=%v", p, step, lane, i, got, want)
					}
				}
			}
		}
		// Residual-stream check: if either side consumed a different number
		// of draws (e.g. a spurious draw at p<=0 or p>=1), the next raw
		// outputs diverge.
		lanes.BernoulliWords(0.5, 4, LaneCount, allLive, out)
		for lane := 0; lane < LaneCount; lane++ {
			for i := 0; i < 4; i++ {
				want := scalars[lane].Bernoulli(0.5)
				got := out[i]>>uint(lane)&1 == 1
				if got != want {
					t.Fatalf("p=%v residual lane=%d draw=%d: lanes=%v scalar=%v (draw counts diverged)", p, lane, i, got, want)
				}
			}
		}
	}
}

// TestBernoulliWordsPartialLanes pins the partial-block contract the lane
// runner's count-proportional cost rests on: with lanes < LaneCount, lanes
// below the count draw exactly the scalar streams, every bit at or above it
// is zero (p >= 1 included), and the generators at or above it do not
// advance — a later full-width draw continues their untouched streams. A
// prefix Seed likewise leaves the lanes above the prefix as they were.
func TestBernoulliWordsPartialLanes(t *testing.T) {
	for _, count := range []int{0, 1, 7, 31, 32, 33, 63} {
		for _, p := range []float64{0.05, 0.42, 0.5, 0.97, 1} {
			// The bank starts on one seed set; a prefix reseed moves only
			// the first count lanes onto a second.
			var seeds, reseeds [LaneCount]uint64
			scalars := make([]*Source, LaneCount)
			for lane := range seeds {
				seeds[lane] = 0xc0ffee + uint64(lane)*0x9e3779b97f4a7c15
				reseeds[lane] = 0xbeef + uint64(lane)*0x9e3779b97f4a7c15
				if lane < count {
					scalars[lane] = New(reseeds[lane])
				} else {
					scalars[lane] = New(seeds[lane])
				}
			}
			lanes := NewLanes(&seeds)
			lanes.Seed(reseeds[:count])
			out := make([]uint64, 40)
			for step, n := range []int{17, 1, 40} {
				lanes.BernoulliWords(p, n, count, allLive, out)
				for i := 0; i < n; i++ {
					if high := out[i] &^ (1<<uint(count) - 1); high != 0 {
						t.Fatalf("count=%d p=%v step=%d word %d: bits %#x set at or above the lane count", count, p, step, i, high)
					}
				}
				for lane := 0; lane < count; lane++ {
					for i := 0; i < n; i++ {
						want := scalars[lane].Bernoulli(p)
						if got := out[i]>>uint(lane)&1 == 1; got != want {
							t.Fatalf("count=%d p=%v step=%d lane=%d draw=%d: lanes=%v scalar=%v", count, p, step, lane, i, got, want)
						}
					}
				}
			}
			// Residual streams: the drawn lanes continue where the scalars
			// are, the others from their first draw.
			lanes.BernoulliWords(0.5, 4, LaneCount, allLive, out)
			for lane := 0; lane < LaneCount; lane++ {
				for i := 0; i < 4; i++ {
					want := scalars[lane].Bernoulli(0.5)
					if got := out[i]>>uint(lane)&1 == 1; got != want {
						t.Fatalf("count=%d p=%v residual lane=%d draw=%d: lanes=%v scalar=%v (a lane above the count advanced)", count, p, lane, i, got, want)
					}
				}
			}
		}
	}
}

// TestBernoulliWordsLiveMask is the RNG contract of the live mask the lane
// runner passes (the fault words its corruption reads): for an empty, a
// single-vertex, a full and random masks, at the edge values of p, the
// live words equal the scalar Bernoulli stream draw for draw, the other
// words are zero, and the bank ends every call in the state an all-live
// call leaves — so the next call draws identically whatever the previous
// mask was.
func TestBernoulliWordsLiveMask(t *testing.T) {
	const n = 36
	seedOf := func(lane int) uint64 { return 0x51ed_2701_0000_0003 + uint64(lane)*0x9e3779b97f4a7c15 }
	ps := []float64{0, 1e-12, math.Ldexp(1, -53), 0.05, 0.42, math.Nextafter(0.5, 0), 0.5,
		0.97, math.Nextafter(1, 0), 1}
	src := New(99)
	masks := []struct {
		name string
		live func() []uint64
	}{
		{"empty", func() []uint64 { return make([]uint64, n) }},
		{"single", func() []uint64 {
			live := make([]uint64, n)
			live[src.Intn(n)] = 1 << uint(src.Intn(LaneCount))
			return live
		}},
		{"all", func() []uint64 { return allLive[:n] }},
		{"random", func() []uint64 {
			live := make([]uint64, n)
			for i := range live {
				if src.Intn(3) == 0 {
					live[i] = src.Uint64() | 1
				}
			}
			return live
		}},
	}
	for _, m := range masks {
		name := m.name
		for _, count := range []int{LaneCount, 17} {
			for _, p := range ps {
				var seeds [LaneCount]uint64
				scalars := make([]*Source, count)
				for lane := range seeds {
					seeds[lane] = seedOf(lane)
					if lane < count {
						scalars[lane] = New(seeds[lane])
					}
				}
				masked, dense := NewLanes(&seeds), NewLanes(&seeds)
				out, ref := make([]uint64, n), make([]uint64, n)
				for step := 0; step < 4; step++ {
					live := m.live()
					masked.BernoulliWords(p, n, count, live, out)
					dense.BernoulliWords(p, n, count, allLive, ref)
					for i := 0; i < n; i++ {
						if live[i] == 0 && out[i] != 0 {
							t.Fatalf("%s count=%d p=%v step=%d: dead word %d is %#x, want 0", name, count, p, step, i, out[i])
						}
					}
					for lane := 0; lane < count; lane++ {
						for i := 0; i < n; i++ {
							want := scalars[lane].Bernoulli(p)
							if live[i] == 0 {
								continue
							}
							if got := out[i]>>uint(lane)&1 == 1; got != want {
								t.Fatalf("%s count=%d p=%v step=%d lane=%d draw=%d: lanes=%v scalar=%v", name, count, p, step, lane, i, got, want)
							}
						}
					}
					if *masked != *dense {
						t.Fatalf("%s count=%d p=%v step=%d: bank state differs from an all-live call's", name, count, p, step)
					}
				}
				// The next call draws identically: a full fill after the
				// masked ones matches the scalar residual streams.
				masked.BernoulliWords(0.5, 4, count, allLive, out)
				for lane := 0; lane < count; lane++ {
					for i := 0; i < 4; i++ {
						if got, want := out[i]>>uint(lane)&1 == 1, scalars[lane].Bernoulli(0.5); got != want {
							t.Fatalf("%s count=%d p=%v residual lane=%d draw=%d: lanes=%v scalar=%v", name, count, p, lane, i, got, want)
						}
					}
				}
				if high := out[0] >> uint(count) << uint(count); count < LaneCount && high != 0 {
					t.Fatalf("%s count=%d: bits %#x at or above the lane count", name, count, high)
				}
			}
		}
	}
}

// TestLanesSkip is the stream contract of the lane runner's deferred
// rounds: Skip(k, count) followed by BernoulliWords equals, lane for lane,
// the scalar Source stream with k draws discarded — from no draw and a
// single one to a 36-vertex round and a whole 576-round grid:6x6 horizon —
// while the lanes at or above count keep their state and continue from
// their first draw. The fill after the skip runs on every lane at two
// rates, so a lane that stepped too far, too little or at all when it
// should not have reads a different draw.
func TestLanesSkip(t *testing.T) {
	for _, count := range []int{LaneCount, 17} {
		for _, k := range []int{0, 1, 35, 36 * 576} {
			var seeds [LaneCount]uint64
			scalars := make([]*Source, LaneCount)
			for lane := range seeds {
				seeds[lane] = 0x5ca1ab1e + uint64(lane)*0x9e3779b97f4a7c15
				scalars[lane] = New(seeds[lane])
				if lane < count {
					for i := 0; i < k; i++ {
						scalars[lane].Uint64()
					}
				}
			}
			lanes := NewLanes(&seeds)
			lanes.Skip(k, count)
			out := make([]uint64, 40)
			for _, p := range []float64{0.42, 0.5} {
				lanes.BernoulliWords(p, len(out), LaneCount, allLive, out)
				for lane := 0; lane < LaneCount; lane++ {
					for i := range out {
						want := scalars[lane].Bernoulli(p)
						if got := out[i]>>uint(lane)&1 == 1; got != want {
							t.Fatalf("count=%d k=%d p=%v lane=%d draw=%d: lanes=%v scalar=%v", count, k, p, lane, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestLanesSeedReuse pins that reseeding a bank in place is bit-identical
// to a fresh bank — the lane runner reuses one bank across trial blocks.
func TestLanesSeedReuse(t *testing.T) {
	var a, b [LaneCount]uint64
	for lane := range a {
		a[lane] = uint64(lane) * 77
		b[lane] = uint64(lane)*131 + 5
	}
	reused := NewLanes(&a)
	scratch := make([]uint64, 8)
	reused.BernoulliWords(0.3, 8, LaneCount, allLive, scratch)
	reused.Seed(b[:])
	fresh := NewLanes(&b)
	got := make([]uint64, 16)
	want := make([]uint64, 16)
	reused.BernoulliWords(0.42, 16, LaneCount, allLive, got)
	fresh.BernoulliWords(0.42, 16, LaneCount, allLive, want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("word %d: reused bank %#x != fresh bank %#x", i, got[i], want[i])
		}
	}
}

// TestLaneSourcesMatchScalarStreams pins the adversary-bank contract: per
// lane, LessMasked and Intn2Masked draw exactly when the lane is masked,
// and each draw is value-identical to the scalar Source's Float64()<p /
// Intn(2). The mask pattern varies per step so lanes advance by different
// amounts, and a residual-stream check catches any hidden extra draw.
func TestLaneSourcesMatchScalarStreams(t *testing.T) {
	var seeds [LaneCount]uint64
	scalars := make([]*Source, LaneCount)
	for lane := range seeds {
		seeds[lane] = 0xfeed_beef_0000_0001 + uint64(lane)*0x9e3779b97f4a7c15
		scalars[lane] = New(seeds[lane])
	}
	var bank LaneSources
	bank.Seed(seeds[:])
	masks := []uint64{
		^uint64(0), 0, 0xaaaa_aaaa_aaaa_aaaa, 1, 1 << 63,
		0x00ff_ff00_0f0f_0f0f, 0x5555_5555_5555_5555,
	}
	ps := []float64{0.1, 0.3, 0.499, 0.9}
	step := 0
	for _, p := range ps {
		for _, mask := range masks {
			step++
			var got uint64
			if step%2 == 0 {
				got = bank.LessMasked(p, mask)
				for lane := 0; lane < LaneCount; lane++ {
					if mask>>uint(lane)&1 == 0 {
						continue
					}
					want := scalars[lane].Float64() < p
					if got>>uint(lane)&1 == 1 != want {
						t.Fatalf("step %d LessMasked(%v) lane %d: got %v want %v", step, p, lane, !want, want)
					}
				}
			} else {
				got = bank.Intn2Masked(mask)
				for lane := 0; lane < LaneCount; lane++ {
					if mask>>uint(lane)&1 == 0 {
						continue
					}
					want := scalars[lane].Intn(2)
					if int(got>>uint(lane)&1) != want {
						t.Fatalf("step %d Intn2Masked lane %d: got %d want %d", step, lane, got>>uint(lane)&1, want)
					}
				}
			}
			if got&^mask != 0 {
				t.Fatalf("step %d: result bits outside mask: %#x &^ %#x", step, got, mask)
			}
		}
	}
	// Residual streams: non-masked lanes must not have advanced anywhere
	// above, so the next full-mask draw agrees lane by lane.
	out := bank.Intn2Masked(^uint64(0))
	for lane := 0; lane < LaneCount; lane++ {
		if want := scalars[lane].Intn(2); int(out>>uint(lane)&1) != want {
			t.Fatalf("residual lane %d: got %d want %d (draw counts diverged)", lane, out>>uint(lane)&1, want)
		}
	}
}

// TestLaneSourcesSeedReuse pins that reseeding a bank in place matches a
// fresh bank (the lane runner reseeds one adversary bank per trial block).
func TestLaneSourcesSeedReuse(t *testing.T) {
	var a, b [LaneCount]uint64
	for lane := range a {
		a[lane] = uint64(lane)*313 + 7
		b[lane] = uint64(lane)*911 + 3
	}
	var reused, fresh LaneSources
	reused.Seed(a[:])
	reused.LessMasked(0.5, ^uint64(0))
	reused.Seed(b[:])
	fresh.Seed(b[:])
	for i := 0; i < 5; i++ {
		if g, w := reused.Intn2Masked(^uint64(0)), fresh.Intn2Masked(^uint64(0)); g != w {
			t.Fatalf("draw %d: reused %#x != fresh %#x", i, g, w)
		}
	}
}

// TestBernoulliThresholdEdges spot-checks the integer threshold at values
// where float rounding could plausibly bite.
func TestBernoulliThresholdEdges(t *testing.T) {
	cases := []struct {
		p    float64
		want uint64
	}{
		{0.5, 1 << 52},
		{0.25, 1 << 51},
		{1.0 / (1 << 53), 1},
	}
	for _, c := range cases {
		if got := bernoulliThreshold(c.p); got != c.want {
			t.Fatalf("threshold(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	// For arbitrary p the decision must match the scalar comparison for
	// every possible 53-bit draw near the threshold.
	for _, p := range []float64{0.1, 0.3, 0.7, 0.999, 1e-9} {
		thr := bernoulliThreshold(p)
		for _, y := range []uint64{thr - 2, thr - 1, thr, thr + 1} {
			if y >= 1<<53 {
				continue
			}
			scalar := float64(y)/(1<<53) < p
			integer := y < thr
			if scalar != integer {
				t.Fatalf("p=%v y=%d: scalar=%v integer=%v", p, y, scalar, integer)
			}
		}
	}
}

// BenchmarkBernoulliWords times one transposed fault-mask fill at a
// sweep-typical shape: 36 words (a 6x6 grid's vertices) across all 64
// lanes, at a mid-range p where a compare-and-branch would mispredict
// about half the time.
func BenchmarkBernoulliWords(b *testing.B) {
	var seeds [LaneCount]uint64
	for lane := range seeds {
		seeds[lane] = uint64(lane) + 1
	}
	l := NewLanes(&seeds)
	out := make([]uint64, 36)
	b.ReportAllocs()
	for b.Loop() {
		l.BernoulliWords(0.42, len(out), LaneCount, allLive, out)
	}
}

// BenchmarkBernoulliWordsSparse is the same fill with one live vertex of
// 36 — the shape of a Simple-Malicious round on a 6x6 grid, where a single
// vertex transmits in its window — so every lane takes all 36 state steps
// but scrambles and compares one draw.
func BenchmarkBernoulliWordsSparse(b *testing.B) {
	var seeds [LaneCount]uint64
	for lane := range seeds {
		seeds[lane] = uint64(lane) + 1
	}
	l := NewLanes(&seeds)
	out := make([]uint64, 36)
	live := make([]uint64, len(out))
	live[17] = ^uint64(0)
	b.ReportAllocs()
	for b.Loop() {
		l.BernoulliWords(0.42, len(out), LaneCount, live, out)
	}
}
