// Package sim is the synchronous network simulator underlying every
// experiment: a round-based engine over an undirected graph supporting the
// paper's two communication models (message passing and radio, including
// the radio collision rule) and its fault scenarios (node-omission,
// malicious, and limited-malicious transmission failures, each hitting a
// node's transmitter independently with probability p per step).
//
// It has two production cores. The round engine (Run, Runner) executes
// one trial at a time on a word-parallel round core (internal/bitset):
// fault sampling fills a per-round fault mask with batched Bernoulli
// draws, omission silencing is a mask intersection, broadcast delivery
// walks cached adjacency bitset rows, and the radio collision rule
// ("heard iff silent and exactly one neighbor transmits") is computed
// with seen-once/seen-twice accumulator sets. The lane-transposed core
// (LaneRunner, lanes.go) runs 64 trials per machine word for estimation.
//
// Two reference engines live in the test files, where they serve as
// falsifiers rather than tuning knobs: the scalar core (per-id Bernoulli
// draws, neighbor-callback delivery; scalar_test.go) and the
// goroutine-per-node engine with barrier synchronization that mirrors the
// paper's "one process per node" model (concurrent_test.go).
//
// Trial streams (many seeds, one configuration) should use a Runner,
// which validates the configuration once and rewinds a single execution
// state per trial instead of reallocating it.
//
// # Invariants
//
//   - Bitset core ≡ scalar reference ≡ goroutine-per-node reference, bit
//     for bit over full execution histories, across a randomized matrix
//     of ~200 configurations (model × fault × adversary × graph family ×
//     p × seed): TestDifferentialBitsetVsScalar,
//     TestDifferentialSequentialVsConcurrent, TestEnginesEquivalent in
//     differential_test.go and engine_test.go.
//   - The lane core's per-trial verdicts ≡ the scalar reference's over
//     full and partial 64-trial blocks: TestDifferentialLanesVsScalar*
//     in lanes_test.go. The lane sampler computes only the fault words a
//     round's corruption reads; unread rounds are deferred, and a
//     block's trailing ones are never drawn, so every value read comes
//     from the scalar trial's stream position
//     (TestDifferentialLanesVsScalarDeferredRounds).
//   - A reused Runner is bit-identical to a fresh Run with the same seed,
//     and results never alias reused state: TestRunnerMatchesRun,
//     TestRunnerResultsDoNotAlias, TestDifferentialRunnerReuse.
//   - One fixed-seed run per experiment family is pinned round by round
//     (fault-set hash, delivery count, informed-set hash) against golden
//     digests under testdata/golden: TestGoldenTraces (regenerate
//     intentional behavior changes with -update), and the digests are
//     identical on both reference engines: TestGoldenTracesCoreInvariant.
//   - The omission fast path allocates nothing per round at steady state:
//     TestOmissionFastPathZeroAlloc in alloc_test.go.
package sim
