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
//  2. Result cache and tally store. Estimates are cached per key in an
//     LRU. A cached estimate SATISFIES a request if its 95% half-width is
//     at most the requested one (or, with no half-width requested, if it
//     ran at least the requested trials); satisfied requests are answered
//     with zero simulation trials and no admission slot. Everything else
//     executes against the tally store — the durable one with -store, a
//     bounded in-memory one otherwise: the stored per-batch tallies of
//     the key's trial stream are replayed through the request's stopping
//     rule at cold batch boundaries, and only the marginal trials run.
//     A refined answer is therefore bit-identical to a cold server's.
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
//   - cache_hits: answers satisfied from the result cache, zero trials.
//   - coalesced: followers that shared a leader's SUCCESSFUL answer.
//   - coalesced_errors: followers that inherited a leader's error
//     instead — counted separately so coalesced remains a pure
//     amortization metric.
//   - executions / refines: leader runs, and those that topped up a
//     stored prefix (store_hits / store_refines split tally-store replays
//     into zero-trial answers and top-ups).
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
// the marginal trials) and is written back to the result cache, and each
// decided cell is written and flushed immediately so clients watch the
// grid fill in.
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
// follower never runs a trial; an answer produced by refinement keeps the
// stored trials and executes only a continuation of the same seed
// sequence, bit-identical to a cold server's answer to the same request
// (half-width and almost-safe requests included); compiled plans are shared
// across seeds of a scenario (the seed keys results, not plans);
// requests are validated before any work is admitted
// (malformed specs and oversized graphs are rejected with structured
// errors, never compiled); and the handlers are safe under `go test
// -race` with arbitrary interleavings.
package service
