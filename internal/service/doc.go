// Package service implements faultcastd's HTTP serving layer: a
// long-running JSON API that answers success-probability estimation
// queries over the compile-once plan pipeline (faultcast.Compile →
// Plan.Estimate) while amortizing its cost across many callers.
//
// Endpoints:
//
//	POST /v1/estimate   estimate the success probability of a scenario
//	POST /v1/sweep      run a declarative parameter grid; streams one
//	                    NDJSON line per cell in completion order, then a
//	                    summary line
//	POST /v1/shard      execute one shard of a cluster coordinator's trial
//	                    stream and return its per-batch success tally
//	GET  /v1/scenarios  the request vocabulary (graph grammar, models,
//	                    faults, algorithms, adversaries) and server limits
//	GET  /v1/stats      request/cache/admission counters, per-endpoint
//	                    latency histograms (plus the fleet snapshot in
//	                    coordinator mode)
//	GET  /healthz       liveness (reports "draining" during shutdown)
//
// Four mechanisms stand between a request and the engine, in order:
//
//  1. Canonical keying. Every request is lowered to a faultcast.Config and
//     keyed by Config.Fingerprint — a SHA-256 over the deterministic
//     serialization of its simulation semantics (graph structure, not
//     graph name; IEEE-754 bits, not decimal renderings; engine selectors
//     excluded because they are proven bit-identical). Semantically
//     identical requests therefore hash equal and share everything below.
//
//  2. The tally store, the only cache of answers. It holds the
//     per-batch success tallies of every trial stream served — the
//     durable store with -store, a bounded in-memory one otherwise. A
//     request first RECALLS (Plan.Recall): when its scenario's plan is
//     already compiled, the stored tallies of its stream are replayed
//     through its stopping rule at cold batch boundaries, and if they
//     decide it (the rule stops, or the budget is covered) it is answered
//     with zero simulation trials and no admission slot. Everything else
//     executes the same replay and simulates only the marginal trials.
//     Either way the answer is bit-identical to a cold server's: it
//     depends only on the request, never on what was asked before.
//
//  3. Plan LRU + singleflight coalescing. Compiled plans are kept in an
//     LRU keyed by the same fingerprint, and concurrent identical requests
//     collapse onto one in-flight execution: N callers, one plan run, all
//     N get the answer. TestCoalescing drives 64 concurrent identical
//     requests through the race detector and asserts exactly one
//     execution.
//
//  4. Bounded admission. At most MaxInflight estimations run at once and
//     at most MaxQueue callers wait for a slot; beyond that the server
//     answers 429 with a Retry-After header instead of letting load grow
//     the engine's footprint without bound. A caller that disconnects
//     while waiting for a slot is not shed load: that path answers 499
//     without Retry-After and bumps its own counter.
//
// Counter semantics (the /v1/stats ledger; each outcome increments
// exactly one of the serving-path counters, so operators can alert on
// them without double counting):
//
//   - cache_hits: answers decided by the stored prefix, zero trials
//     (recalled without a slot, or reached by an execution whose plan
//     was not yet compiled).
//   - coalesced: followers that shared a leader's SUCCESSFUL answer.
//   - coalesced_errors: followers that inherited a leader's error
//     instead — counted separately so coalesced remains a pure
//     amortization metric.
//   - executions / refines: leader runs, and those that topped up a
//     stored prefix. store_hits counts the zero-trial answers of the
//     tally store, estimates and sweep cells alike.
//   - rejected: exactly the number of 429 responses sent — leaders
//     refused admission AND followers that shared a leader's 429.
//   - canceled: requests whose own client disconnected while queued
//     (the 499 path); never counted as rejected.
//
// The latency map carries one log-spaced histogram per endpoint
// (estimate/sweep/shard, internal/hist) summarized as count, mean, and
// p50/p90/p95/p99/max — measured handler-entry to handler-exit, the
// server-side clock faultcastctl bench cross-checks its client-side
// percentiles against.
//
// Sweeps compose with the same machinery at cell granularity: a sweep
// occupies one admission slot (its cells share one worker pool via the
// sweep scheduler), every cell resumes from the tally store (stored cells
// answer with zero simulation, partially stored ones are topped up by
// the marginal trials and append them back), and each decided cell is
// written and flushed immediately so clients watch the grid fill in.
//
// The cluster layer rides the same plan cache: every server is a worker
// (POST /v1/shard rebuilds a wire scenario, verifies the coordinator's
// plan key, and tallies one seed range with no stopping rule — shards of
// one scenario compile at most once per worker), and a server built with
// Options.Cluster is a coordinator whose estimates and sweeps dispatch
// through the fleet with bit-identical results. BeginDrain supports
// graceful shutdown: new shard work is refused with 503/"draining" while
// in-flight work completes — see internal/cluster for the protocol.
//
// Invariants (enforced by the package tests): a cache hit or coalesced
// follower never runs a trial, and a recalled answer takes no admission
// slot; every answer — recalled, refined or fresh — is bit-identical to a
// cold server's answer to the same request (half-width and almost-safe
// requests included), and a refinement executes only a continuation of
// the stored seed sequence; a stored stream is never shortened by a
// smaller request; compiled plans are shared across seeds of a scenario
// (the seed keys trial streams, not plans);
// requests are validated before any work is admitted
// (malformed specs and oversized graphs are rejected with structured
// errors, never compiled); and the handlers are safe under `go test
// -race` with arbitrary interleavings.
package service
