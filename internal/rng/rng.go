// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Reproducibility is a core requirement of the experiment harness: a run is
// identified by (configuration, seed), and re-running it must produce
// bit-identical fault patterns regardless of engine (sequential or
// concurrent) and regardless of how many trials execute in parallel. To get
// that, every consumer of randomness (the fault sampler, each adversary,
// each Monte-Carlo trial) owns a private stream derived from a master seed
// via Split, and no stream is ever shared across goroutines.
//
// The generator is xoshiro256** with splitmix64 seeding — both are public
// domain algorithms with well-studied statistical behaviour, implemented
// here from the reference descriptions so the module stays dependency-free.
package rng

import "math/bits"

// Source is a deterministic xoshiro256** generator. It is NOT safe for
// concurrent use; use Split to derive independent streams per goroutine.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used to expand seeds into full generator state, as recommended by the
// xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Distinct seeds yield
// independent-looking streams; the all-zero internal state is impossible by
// construction.
func New(seed uint64) *Source {
	var r Source
	r.Seed(seed)
	return &r
}

// Seed re-initializes r in place: its stream becomes identical to a fresh
// New(seed), so a reused Source is bit-identical to a newly allocated one.
func (r *Source) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro requires a nonzero state; splitmix64 of any seed cannot
	// produce four zero words, but guard anyway so the invariant is local.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Split derives a new Source whose stream is independent of the parent's
// future output. It consumes one value from the parent, so repeated splits
// yield distinct children deterministically.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p. Values p <= 0 always return
// false and p >= 1 always return true.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// BernoulliMask fills mask — a bitset over ids 0..n-1, 64 ids per word —
// with n independent Bernoulli(p) draws: bit i is set iff draw i
// succeeded. The draws are identical, in number and order, to n successive
// Bernoulli(p) calls on the same Source, so the simulator's word-parallel
// fault sampler produces bit-identical fault patterns to the scalar
// per-node loop it replaces (the differential tests rely on this).
//
// mask must have at least (n+63)/64 words; it is zeroed first.
func (r *Source) BernoulliMask(p float64, n int, mask []uint64) {
	words := (n + 63) >> 6
	for i := 0; i < words; i++ {
		mask[i] = 0
	}
	if n <= 0 || p <= 0 {
		return // Bernoulli(p<=0) consumes no randomness and is always false
	}
	if p >= 1 {
		// Bernoulli(p>=1) consumes no randomness and is always true.
		for i := 0; i < n; i++ {
			mask[i>>6] |= 1 << (uint(i) & 63)
		}
		return
	}
	for i := 0; i < n; i++ {
		// Inlined Float64() < p with the p-range branches hoisted.
		if float64(r.Uint64()>>11)/(1<<53) < p {
			mask[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// Derive maps a (master seed, key) pair to a base seed via a splitmix64
// chain over the master and an FNV-1a fold of the key. The sweep layer
// derives every cell's trial-stream seed this way — Derive(sweepSeed,
// cellKey) — so that cell seeds are decorrelated from each other and from
// the master, yet fully determined by (master, key): re-running a sweep
// reproduces every cell bit-identically, and reordering, adding, or
// removing cells never changes the seeds of the others (the property the
// harness's old o.Seed^cellSeed XOR scheme lacked: XOR let distinct cells
// collide and correlated their streams with the master's).
func Derive(master uint64, key string) uint64 {
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	state := master
	splitmix64(&state) // decorrelate from the raw master value
	state ^= h
	return splitmix64(&state)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Binomial samples the number of successes among n Bernoulli(p) trials.
// It is O(n); the simulator only uses it for modest n (per-round fault
// counts in tests), so a fancier sampler is not warranted.
func (r *Source) Binomial(n int, p float64) int {
	k := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			k++
		}
	}
	return k
}

// Shuffle randomizes the order of the first n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
