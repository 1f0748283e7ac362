// Package protocol provides the shared building blocks of the paper's
// broadcasting algorithms: majority voting over received messages, the
// window arithmetic m = ceil(c·log n) that all Section-2 algorithms use,
// and the default message ("0" in the paper) adopted when no majority
// exists.
package protocol

import (
	"math"
)

// Default is the paper's default message "0": the value a node adopts when
// it has received nothing or when a vote ties.
var Default = []byte{'0'}

// IsDefault reports whether payload equals the default message.
func IsDefault(payload []byte) bool {
	return len(payload) == 1 && payload[0] == Default[0]
}

// WindowLen returns m = ceil(c * log2(n)), the per-phase window length used
// by Simple-Omission, Simple-Malicious, and the Theorem 3.4 radio
// algorithms. For n <= 1 it returns max(1, ceil(c)) so degenerate graphs
// still get a positive window.
func WindowLen(c float64, n int) int {
	if c <= 0 {
		panic("protocol: window constant must be positive")
	}
	lg := 1.0
	if n > 1 {
		lg = math.Log2(float64(n))
	}
	m := int(math.Ceil(c * lg))
	if m < 1 {
		m = 1
	}
	return m
}

// Tally counts votes over message payloads and reports the plurality
// winner. Ties (including an empty tally) resolve to Default, matching the
// paper's "or 0 if there is no majority".
//
// Votes are kept as a short list of distinct payloads: a listening window
// sees only a handful (the message, the default, an adversary's noise), so
// a linear scan is cheap and allocates far less per node than a map. The
// zero value is an empty tally.
type Tally struct {
	votes []vote // distinct payloads, first-seen order
	total int
}

type vote struct {
	payload string
	n       int
}

// NewTally returns an empty Tally.
func NewTally() *Tally {
	return &Tally{}
}

// Add records one vote for payload.
func (t *Tally) Add(payload []byte) {
	t.total++
	for i := range t.votes {
		if t.votes[i].payload == string(payload) {
			t.votes[i].n++
			return
		}
	}
	t.votes = append(t.votes, vote{payload: string(payload), n: 1})
}

// Total returns the number of votes recorded.
func (t *Tally) Total() int { return t.total }

// Count returns the number of votes for payload.
func (t *Tally) Count(payload []byte) int {
	for _, v := range t.votes {
		if v.payload == string(payload) {
			return v.n
		}
	}
	return 0
}

// Winner returns the payload with strictly the most votes, or Default when
// the tally is empty or the top count is shared by two or more payloads.
// The answer does not depend on the order votes are scanned in: the first
// payload reaching the top count clears the tie flag, and any later one
// matching it sets the flag for good.
func (t *Tally) Winner() []byte {
	best, bestCount, tie := "", -1, false
	for _, v := range t.votes {
		switch {
		case v.n > bestCount:
			best, bestCount, tie = v.payload, v.n, false
		case v.n == bestCount:
			tie = true
		}
	}
	if bestCount <= 0 || tie {
		return append([]byte(nil), Default...)
	}
	return []byte(best)
}

// Reset clears the tally for reuse.
func (t *Tally) Reset() {
	t.votes = t.votes[:0]
	t.total = 0
}

// MajorityBuffer is a sliding-window vote used by the unsynchronized
// variant of Simple-Malicious described after Theorem 2.2: a node accepts
// a message as genuine once at least half of the last m observations on a
// link carry identical content.
type MajorityBuffer struct {
	window int
	buf    [][]byte
	next   int
	filled int
}

// NewMajorityBuffer returns a buffer over windows of the given length.
func NewMajorityBuffer(window int) *MajorityBuffer {
	if window < 1 {
		panic("protocol: window must be >= 1")
	}
	return &MajorityBuffer{window: window, buf: make([][]byte, window)}
}

// Observe records one observation (nil = silence) for the current round.
func (b *MajorityBuffer) Observe(payload []byte) {
	var cp []byte
	if payload != nil {
		cp = append([]byte(nil), payload...)
	}
	b.buf[b.next] = cp
	b.next = (b.next + 1) % b.window
	if b.filled < b.window {
		b.filled++
	}
}

// Accepted returns the payload occupying at least half the window, or nil
// if none does (silence never qualifies).
func (b *MajorityBuffer) Accepted() []byte {
	if b.filled == 0 {
		return nil
	}
	counts := make(map[string]int)
	for i := 0; i < b.filled; i++ {
		if b.buf[i] != nil {
			counts[string(b.buf[i])]++
		}
	}
	need := (b.window + 1) / 2
	for k, c := range counts {
		if c >= need {
			return []byte(k)
		}
	}
	return nil
}
