package rng

import (
	"math"
	"math/bits"
)

// LaneCount is the number of generators in a Lanes bank: one per bit lane
// of a uint64, so a bank advances 64 independent streams per operation.
const LaneCount = 64

// Lanes is a bank of 64 independent xoshiro256** generators advanced in
// lockstep, one per bit lane of a uint64. It backs the trial-parallel
// simulation core: lane L carries the fault stream of Monte-Carlo trial
// baseSeed+L, and BernoulliWords transposes the 64 per-lane draws of each
// step into one word per vertex. Skip passes over draws nobody reads with
// the state steps alone, so a stream's read positions keep their values
// while the unread ones are never computed.
//
// The state is laid out structure-of-arrays (four word banks indexed by
// lane) so the per-lane advance loop is a straight-line pass over dense
// arrays. Like Source, a Lanes is NOT safe for concurrent use.
type Lanes struct {
	s0, s1, s2, s3 [LaneCount]uint64
}

// NewLanes returns a bank whose lane L is seeded exactly like New(seeds[L]).
func NewLanes(seeds *[LaneCount]uint64) *Lanes {
	var l Lanes
	l.Seed(seeds[:])
	return &l
}

// Seed re-initializes lanes 0..len(seeds)-1 in place: lane L's stream
// becomes identical to a fresh New(seeds[L]) — the same splitmix64
// expansion, including the nonzero-state guard — so a reseeded lane is
// bit-identical to a freshly allocated one (the lane runner reseeds one
// bank per trial block, only on the lanes the block uses). Lanes at or
// above len(seeds) keep their state; len(seeds) must not exceed LaneCount.
func (l *Lanes) Seed(seeds []uint64) {
	for lane, seed := range seeds {
		sm := seed
		a := splitmix64(&sm)
		b := splitmix64(&sm)
		c := splitmix64(&sm)
		d := splitmix64(&sm)
		if a|b|c|d == 0 {
			a = 0x9e3779b97f4a7c15
		}
		l.s0[lane] = a
		l.s1[lane] = b
		l.s2[lane] = c
		l.s3[lane] = d
	}
}

// bernoulliThreshold returns the integer threshold t such that, for
// 0 < p < 1, Float64() < p holds iff the 53-bit draw (Uint64() >> 11) is
// below t. Float64 returns (x>>11)·2⁻⁵³ exactly (a 53-bit integer scaled
// by a power of two incurs no rounding), so the comparison y·2⁻⁵³ < p over
// integers y is y < p·2⁵³, i.e. y < ceil(p·2⁵³); and p·2⁵³ itself is exact
// in float64 for the same power-of-two reason. The scalar Bernoulli path
// and this integer form therefore decide every draw identically — the
// equivalence the lane sampler's bit-identity rests on, pinned by
// TestBernoulliWordsMatchesScalarStreams.
func bernoulliThreshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// LaneSources is a bank of 64 independent xoshiro256** generators, one per
// bit lane, advanced selectively: every operation takes a lane mask and
// draws only on the masked lanes, leaving the others untouched. It backs
// the trial-parallel core's adversary streams, where lane L's generator
// must reproduce the scalar trial's adversary Source exactly — including
// rounds in which only some trials' adversaries draw at all.
//
// Unlike Lanes (whose Bernoulli transposition advances a prefix of lanes
// in lockstep), a LaneSources advance is data-dependent per lane, so the
// state lives in the same structure-of-arrays layout but is walked mask-
// bit by mask-bit. Not safe for concurrent use.
type LaneSources struct {
	s0, s1, s2, s3 [LaneCount]uint64
}

// Seed re-initializes lanes 0..len(seeds)-1 in place: lane L's stream
// becomes identical to a fresh New(seeds[L]), with the same splitmix64
// expansion and nonzero-state guard as Lanes.Seed. Lanes at or above
// len(seeds) keep their state.
func (l *LaneSources) Seed(seeds []uint64) {
	for lane, seed := range seeds {
		sm := seed
		a := splitmix64(&sm)
		b := splitmix64(&sm)
		c := splitmix64(&sm)
		d := splitmix64(&sm)
		if a|b|c|d == 0 {
			a = 0x9e3779b97f4a7c15
		}
		l.s0[lane] = a
		l.s1[lane] = b
		l.s2[lane] = c
		l.s3[lane] = d
	}
}

// next advances one lane and returns its raw xoshiro256** output — the
// same recurrence Source.Uint64 applies.
func (l *LaneSources) next(lane int) uint64 {
	s0, s1, s2, s3 := l.s0[lane], l.s1[lane], l.s2[lane], l.s3[lane]
	x := bits.RotateLeft64(s1*5, 7) * 9
	tt := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= tt
	s3 = bits.RotateLeft64(s3, 45)
	l.s0[lane], l.s1[lane], l.s2[lane], l.s3[lane] = s0, s1, s2, s3
	return x
}

// LessMasked draws Float64() < p on every lane in mask (exactly one Uint64
// per masked lane, like the scalar Float64 — the draw happens regardless
// of p) and returns the lanes whose draw was below p. Non-masked lanes do
// not advance. The comparison uses the integer threshold form, which
// bernoulliThreshold proves decision-identical to the scalar float
// comparison for every draw.
func (l *LaneSources) LessMasked(p float64, mask uint64) uint64 {
	var out uint64
	t := bernoulliThreshold(p)
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		if l.next(lane)>>11 < t {
			out |= 1 << uint(lane)
		}
	}
	return out
}

// Intn2Masked draws Intn(2) on every lane in mask and returns the lanes
// that drew 1. Non-masked lanes do not advance. It reproduces the scalar
// Lemire path for bound 2 exactly: hi of x·2 is x>>63, lo is x<<1 (always
// even, so the `lo < bound` rejection branch compares against threshold
// (-2 mod 2) = 0 and never redraws) — exactly one Uint64 per draw, with
// the result being the top bit.
func (l *LaneSources) Intn2Masked(mask uint64) uint64 {
	var out uint64
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		out |= l.next(lane) >> 63 << uint(lane)
	}
	return out
}

// BernoulliWords fills out[0..n-1] with transposed Bernoulli(p) draws on
// lanes 0..lanes-1 (0 <= lanes <= LaneCount): bit L of out[i] is
// the i-th draw of lane L. Per lane the draws are identical, in number and
// order, to n successive Bernoulli(p) calls on a Source seeded like that
// lane — including the p-range rules (p <= 0 consumes no randomness and is
// always false; p >= 1 consumes none and is always true) — so lane L of a
// word stream reproduces the scalar fault stream of trial L exactly.
//
// Only the words marked live are computed: out[i] holds the draws where
// live[i] != 0 and is zero elsewhere. Every lane's generator still takes
// all n steps, so the streams stay aligned with the scalar Source and the
// bank's state after the call does not depend on live. What a dead word
// saves is xoshiro256**'s output scrambler (rotl(s1·5, 7)·9) and the
// threshold compare: the linear state step is the only part of a draw the
// next draw depends on.
//
// Lanes at or above lanes draw nothing: their generators do not advance
// and their bits of out are zero, so a partial trial block costs in
// proportion to the lanes it uses.
//
// live and out must have at least n words; the first n of out are
// overwritten.
func (l *Lanes) BernoulliWords(p float64, n, lanes int, live, out []uint64) {
	if n <= 0 {
		return
	}
	out, live = out[:n], live[:n] // hoists the bounds checks out of the draw loop
	for i := range out {
		out[i] = 0
	}
	if p <= 0 {
		return
	}
	if p >= 1 {
		all := ^uint64(0) >> uint(LaneCount-lanes)
		for i := range out {
			if live[i] != 0 {
				out[i] = all
			}
		}
		return
	}
	// x>>11 < t is x < t·2¹¹ (t < 2⁵³ for p < 1, so the product fits),
	// and the borrow of x − t·2¹¹ is that decision: Sub64 and Add64 compile
	// to SUB and ADC, so a draw costs two instructions and no branch (a
	// compare-and-branch mispredicts about half the time at mid-range p).
	// ADC shifts the decision in at the bottom of out[i]; visiting the
	// lanes from the top down leaves lane L's at bit L.
	t := bernoulliThreshold(p) << 11
	for lane := lanes - 1; lane >= 0; lane-- {
		s0, s1, s2, s3 := l.s0[lane], l.s1[lane], l.s2[lane], l.s3[lane]
		for i := range out {
			if live[i] != 0 {
				x := bits.RotateLeft64(s1*5, 7) * 9
				_, less := bits.Sub64(x, t, 0)
				out[i], _ = bits.Add64(out[i], out[i], less)
			}
			tt := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= tt
			s3 = bits.RotateLeft64(s3, 45)
		}
		l.s0[lane], l.s1[lane], l.s2[lane], l.s3[lane] = s0, s1, s2, s3
	}
}

// Skip advances lanes 0..lanes-1 by draws steps each and computes no
// output: afterwards every such lane's stream is where draws Uint64 calls
// (or BernoulliWords draws at 0 < p < 1) would have left it. Lanes at or
// above lanes keep their state. The lane runner passes over the fault
// words of rounds nobody reads with it.
func (l *Lanes) Skip(draws, lanes int) {
	for lane := 0; lane < lanes; lane++ {
		s0, s1, s2, s3 := l.s0[lane], l.s1[lane], l.s2[lane], l.s3[lane]
		for range draws { // the xoshiro256** state step of Uint64
			s2, s3 = s2^s0, s3^s1
			s0, s1, s2, s3 = s0^s3, s1^s2, s2^s1<<17, bits.RotateLeft64(s3, 45)
		}
		l.s0[lane], l.s1[lane], l.s2[lane], l.s3[lane] = s0, s1, s2, s3
	}
}
