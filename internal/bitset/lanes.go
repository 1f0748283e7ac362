// Lane-counter helpers for the trial-parallel simulation core: a
// bit-sliced counter holds 64 independent small counters, one per bit
// lane, with bit j of counter[j] being bit j of lane L's value. The lane
// kernels use them to run 64 trials' majority votes per word operation.
package bitset

import "math/bits"

// LaneAdd increments, per lane, the bit-sliced counter by the lanes set in
// bit: a ripple-carry add of a one-bit addend across counter's words
// (counter[0] is the least significant bit plane). Lanes whose count would
// exceed the counter's width wrap; callers size the width to the maximum
// possible count, so overflow never occurs in practice.
func LaneAdd(counter []uint64, bit uint64) {
	carry := bit
	for j := 0; j < len(counter) && carry != 0; j++ {
		next := counter[j] & carry
		counter[j] ^= carry
		carry = next
	}
}

// LaneGEConst returns the lanes whose bit-sliced counter value is >= k.
func LaneGEConst(counter []uint64, k uint64) uint64 {
	if k == 0 {
		return ^uint64(0)
	}
	w := len(counter)
	if w < 64 && k >= 1<<uint(w) {
		return 0 // k needs more bits than the counter holds
	}
	// MSB-down comparison: eq tracks lanes equal on the bits seen so far,
	// gt the lanes already decided greater.
	var gt uint64
	eq := ^uint64(0)
	for j := w - 1; j >= 0; j-- {
		c := counter[j]
		if k>>uint(j)&1 == 1 {
			eq &= c
		} else {
			gt |= eq & c
			eq &^= c
		}
	}
	return gt | eq
}

// LaneGT returns the lanes where bit-sliced counter a is strictly greater
// than b. The counters must have equal widths.
func LaneGT(a, b []uint64) uint64 {
	var gt uint64
	eq := ^uint64(0)
	for j := len(a) - 1; j >= 0; j-- {
		gt |= eq & a[j] &^ b[j]
		eq &^= a[j] ^ b[j]
	}
	return gt
}

// LanePlurality decides, per lane, a three-way plurality vote over the
// bit-sliced counters c0 (votes for the default symbol), c1, and c2: win1
// is the lanes where c1 is the strict maximum, win2 where c2 is. Lanes in
// neither (ties included) resolve to the default symbol, matching
// protocol.Tally.Winner's "strictly the most votes, else default". The
// counters must have equal widths.
func LanePlurality(c0, c1, c2 []uint64) (win1, win2 uint64) {
	g10 := LaneGT(c1, c0)
	g12 := LaneGT(c1, c2)
	g20 := LaneGT(c2, c0)
	g21 := LaneGT(c2, c1)
	return g10 & g12, g20 & g21
}

// LaneVotes is a per-vertex plurality vote over a two- or three-symbol
// payload alphabet, 64 trials per word: one bit-sliced counter per vertex
// for each symbol — the default, the source message M (payload column 0)
// and, in the three-symbol alphabet, the third value (column 1). The
// voting protocols' lane kernels count their listening windows in it.
type LaneVotes struct {
	m, d, third [][]uint64 // third is nil for two symbols
}

// NewLaneVotes returns zeroed votes for n vertices over a symbols-symbol
// alphabet (2 or 3), each counter wide enough for maxVotes votes.
func NewLaneVotes(n, symbols, maxVotes int) *LaneVotes {
	width := bits.Len(uint(maxVotes))
	lv := &LaneVotes{m: make([][]uint64, n), d: make([][]uint64, n)}
	if symbols == 3 {
		lv.third = make([][]uint64, n)
	}
	for v := range n {
		lv.m[v] = make([]uint64, width)
		lv.d[v] = make([]uint64, width)
		if lv.third != nil {
			lv.third[v] = make([]uint64, width)
		}
	}
	return lv
}

// Reset zeroes every counter.
func (lv *LaneVotes) Reset() {
	for v := range lv.m {
		clear(lv.m[v])
		clear(lv.d[v])
		if lv.third != nil {
			clear(lv.third[v])
		}
	}
}

// Add counts one vote for v on the lanes in heard: for M where payload
// column 0 of sym is set, for the third value where column 1 is, and for
// the default where neither is.
func (lv *LaneVotes) Add(v int, heard uint64, sym [][]uint64) {
	LaneAdd(lv.m[v], heard&sym[0][v])
	if lv.third == nil {
		LaneAdd(lv.d[v], heard&^sym[0][v])
		return
	}
	LaneAdd(lv.third[v], heard&sym[1][v])
	LaneAdd(lv.d[v], heard&^sym[0][v]&^sym[1][v])
}

// Winner returns the lanes where v's plurality vote resolves to M (w1)
// and to the third value (w2; zero for two symbols). Ties and an empty
// tally resolve to the default, like protocol.Tally.Winner.
func (lv *LaneVotes) Winner(v int) (w1, w2 uint64) {
	if lv.third == nil {
		return LaneGT(lv.m[v], lv.d[v]), 0
	}
	return LanePlurality(lv.d[v], lv.m[v], lv.third[v])
}

// Cast writes v's winner into its payload columns pay.
func (lv *LaneVotes) Cast(v int, pay [][]uint64) {
	w1, w2 := lv.Winner(v)
	pay[0][v] = w1
	if lv.third != nil {
		pay[1][v] = w2
	}
}
