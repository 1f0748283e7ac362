package bitset

import "testing"

// laneValue reads lane L's value out of a bit-sliced counter — the scalar
// reference the word-parallel helpers are checked against.
func laneValue(counter []uint64, lane int) uint64 {
	var v uint64
	for j, w := range counter {
		v |= (w >> uint(lane) & 1) << uint(j)
	}
	return v
}

// lcg is a tiny deterministic generator for test patterns (the package
// must not depend on internal/rng, which depends on nothing; keep it so).
func lcg(x *uint64) uint64 {
	*x = *x*6364136223846793005 + 1442695040888963407
	return *x
}

func TestLaneAddMatchesScalarCounting(t *testing.T) {
	const width = 5
	counter := make([]uint64, width)
	want := [64]uint64{}
	state := uint64(42)
	for step := 0; step < 31; step++ { // 31 < 2^5: no overflow
		bit := lcg(&state)
		LaneAdd(counter, bit)
		for lane := 0; lane < 64; lane++ {
			want[lane] += bit >> uint(lane) & 1
		}
	}
	for lane := 0; lane < 64; lane++ {
		if got := laneValue(counter, lane); got != want[lane] {
			t.Fatalf("lane %d: counter=%d want %d", lane, got, want[lane])
		}
	}
}

func TestLaneGEConst(t *testing.T) {
	const width = 4
	counter := make([]uint64, width)
	state := uint64(7)
	for step := 0; step < 15; step++ {
		LaneAdd(counter, lcg(&state))
	}
	for k := uint64(0); k <= 20; k++ {
		got := LaneGEConst(counter, k)
		for lane := 0; lane < 64; lane++ {
			want := laneValue(counter, lane) >= k
			if got>>uint(lane)&1 == 1 != want {
				t.Fatalf("k=%d lane=%d (value %d): got %v want %v",
					k, lane, laneValue(counter, lane), !want, want)
			}
		}
	}
}

func TestLanePlurality(t *testing.T) {
	const width = 4
	c0 := make([]uint64, width)
	c1 := make([]uint64, width)
	c2 := make([]uint64, width)
	state := uint64(1234)
	for step := 0; step < 10; step++ { // up to 10 votes per counter, < 2^4
		LaneAdd(c0, lcg(&state))
		LaneAdd(c1, lcg(&state))
		LaneAdd(c2, lcg(&state))
	}
	win1, win2 := LanePlurality(c0, c1, c2)
	for lane := 0; lane < 64; lane++ {
		v0, v1, v2 := laneValue(c0, lane), laneValue(c1, lane), laneValue(c2, lane)
		want1 := v1 > v0 && v1 > v2
		want2 := v2 > v0 && v2 > v1
		if got1 := win1>>uint(lane)&1 == 1; got1 != want1 {
			t.Fatalf("lane %d (%d,%d,%d): win1=%v want %v", lane, v0, v1, v2, got1, want1)
		}
		if got2 := win2>>uint(lane)&1 == 1; got2 != want2 {
			t.Fatalf("lane %d (%d,%d,%d): win2=%v want %v", lane, v0, v1, v2, got2, want2)
		}
	}
	if win1&win2 != 0 {
		t.Fatalf("a lane claims two winners: %#x & %#x", win1, win2)
	}
}

func TestLaneGT(t *testing.T) {
	const width = 4
	a := make([]uint64, width)
	b := make([]uint64, width)
	state := uint64(99)
	for step := 0; step < 15; step++ {
		LaneAdd(a, lcg(&state))
		LaneAdd(b, lcg(&state))
	}
	got := LaneGT(a, b)
	for lane := 0; lane < 64; lane++ {
		want := laneValue(a, lane) > laneValue(b, lane)
		if got>>uint(lane)&1 == 1 != want {
			t.Fatalf("lane %d: a=%d b=%d got %v want %v",
				lane, laneValue(a, lane), laneValue(b, lane), !want, want)
		}
	}
}

// TestLaneVotesMatchesScalarPlurality: votes cast through Add, on random
// heard lanes and payload columns, decide per lane exactly as a scalar
// per-symbol tally does ("strictly the most votes, else default"), Cast
// writes that winner into the payload columns, and Reset empties the
// tally.
func TestLaneVotesMatchesScalarPlurality(t *testing.T) {
	const votes = 12
	for _, symbols := range []int{2, 3} {
		lv := NewLaneVotes(2, symbols, votes)
		state := uint64(symbols)
		var counts [64][3]int // per lane: default, M, third
		for step := 0; step < votes; step++ {
			heard := lcg(&state)
			sym := [][]uint64{{0, lcg(&state)}, {0, lcg(&state)}}
			if symbols == 2 {
				sym = sym[:1]
			} else {
				sym[1][1] &^= sym[0][1] // a payload is one symbol
			}
			lv.Add(1, heard, sym)
			for lane := 0; lane < 64; lane++ {
				if heard>>uint(lane)&1 == 0 {
					continue
				}
				s := 0
				for c := range sym {
					if sym[c][1]>>uint(lane)&1 == 1 {
						s = c + 1
					}
				}
				counts[lane][s]++
			}
		}
		pay := [][]uint64{make([]uint64, 2), make([]uint64, 2)}
		lv.Cast(1, pay)
		w1, w2 := lv.Winner(1)
		if pay[0][1] != w1 || (symbols == 3 && pay[1][1] != w2) {
			t.Fatalf("%d symbols: Cast wrote %#x/%#x, Winner %#x/%#x", symbols, pay[0][1], pay[1][1], w1, w2)
		}
		for lane := 0; lane < 64; lane++ {
			c := counts[lane]
			want1 := c[1] > c[0] && c[1] > c[2]
			want2 := c[2] > c[0] && c[2] > c[1]
			if w1>>uint(lane)&1 == 1 != want1 || w2>>uint(lane)&1 == 1 != want2 {
				t.Fatalf("%d symbols, lane %d %v: winners %v/%v, want %v/%v", symbols, lane, c,
					w1>>uint(lane)&1 == 1, w2>>uint(lane)&1 == 1, want1, want2)
			}
		}
		if w1|w2 == 0 {
			t.Fatalf("%d symbols: no lane elected a non-default winner", symbols)
		}
		lv.Reset()
		if w1, w2 := lv.Winner(1); w1|w2 != 0 {
			t.Fatalf("%d symbols: Reset left winners %#x/%#x", symbols, w1, w2)
		}
	}
}
