// Package stat provides the statistical machinery of the experiment
// harness and the serving layer: Monte-Carlo success-rate estimation with
// Wilson confidence intervals, binomial/Chernoff tail helpers (also used
// by the Kučera composition calculus), the radio feasibility threshold
// solver, least-squares fits for scaling experiments, Fold — the
// batch-boundary stop-rule fold every execution layer shares — and the
// reference streaming estimator (EstimateStream / EstimateStreamFrom)
// with deterministic early stopping and resumption that Fold is tested
// against.
//
// # Invariants
//
//   - Estimates are a deterministic function of (maxTrials, baseSeed,
//     rule) — never of the worker count or scheduling: trials are
//     assigned seeds baseSeed+i and stopping is checked only at fixed
//     batch boundaries (TestEstimateStreamStopsPrefix verifies the
//     executed prefix and its worker-count independence).
//   - Resuming a stream from a prior Proportion visits exactly the seed
//     suffix a one-shot run of the combined budget would, and a start
//     that already satisfies the rule runs zero trials
//     (TestEstimateStreamFromResume) — the contract a tally-store
//     resume, and with it faultcastd's refinement, honors through the
//     scheduler's Fold.
//   - Stopping on a target is a sequential test on a band strictly wider
//     than the reported 95% interval, so an early-stopped estimate is
//     always decided the same way as its reported interval (see
//     StopRule).
package stat
