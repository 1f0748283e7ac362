// Package faultcast is a simulation library for fault-tolerant
// broadcasting with random transmission failures, reproducing the system
// of Pelc & Peleg, "Feasibility and complexity of broadcasting with random
// transmission failures" (PODC 2005 / TCS 370 (2007) 279–292).
//
// The model: a synchronous n-node network (message passing or radio) in
// which, at every step, each node's transmitter fails independently with
// constant probability p. Failures are node-omission (a faulty transmitter
// is silent) or malicious (an adaptive adversary drives the faulty
// transmitter). A broadcasting algorithm is almost-safe when it delivers
// the source message to every node with probability at least 1 − 1/n.
//
// The package exposes:
//
//   - feasibility predicates for the paper's four scenarios (Feasible,
//     Threshold, RadioThreshold);
//   - the paper's algorithms, runnable on arbitrary graphs (Simple-Omission,
//     Simple-Malicious, tree flooding, the composed Kučera-style algorithm,
//     the Theorem 3.4 radio algorithms, and the two-node timing protocol);
//   - a compile-once/run-many execution model: Compile lowers a Config to a
//     Plan exactly once (protocol construction, composition plans, radio
//     schedules, spanning trees), and Plan.Run / Plan.Estimate stream any
//     number of trials against it, with optional early-stopped estimation;
//     Run and EstimateSuccess are one-shot wrappers over the same path;
//   - resumable estimation: WithTallyStore / WithSweepTallyStore resume a
//     trial stream from a TallyStore's stored per-batch tallies and append
//     the marginal batches back, so a larger budget or tighter band costs
//     only the new trials, and Plan.Recall answers from the stored prefix
//     alone when it already decides the request — the one reuse path of
//     the faultcastd serving layer, in memory or on disk (internal/store);
//   - declarative parameter sweeps: a SweepSpec names axes (graphs, p,
//     model, fault, adversary, algorithm, message, window constant) and a
//     per-cell budget; CompileSweep expands the cross product into keyed
//     cells that share compiled plans, and SweepPlan.Run streams every
//     cell's estimate from one shared worker pool — early-stopped cells
//     hand their workers to undecided ones, and stored tallies feed back
//     in for zero-trial or marginal-trial answers;
//   - adaptive threshold search: ThresholdSearch brackets a scenario's
//     empirical feasibility threshold by bisection on p with sequential
//     Wilson tests, for comparison against the closed-form Threshold;
//   - pluggable execution: WithDispatcher / WithSweepDispatcher swap the
//     in-process worker pool for any exec.Dispatcher — in particular the
//     cluster coordinator (internal/cluster), which fans trial shards out
//     across remote faultcastd workers with bit-identical results;
//     Plan.TallyShard is the worker-side shard primitive;
//   - canonical keying: Config.Fingerprint hashes the simulation semantics
//     (graph structure, scenario, seed — not graph names, engine selectors,
//     or tracing), so semantically identical configurations key equal in
//     caches; Plan.Key exposes the same key on a compiled plan;
//   - graph constructors for the families used in the paper's
//     constructions, including the layered radio lower-bound graph, and
//     ParseGraph for the compact textual specs used by the CLI and service.
//
// # Invariants
//
// Everything below is enforced by tests, not convention:
//
//   - A run is identified by (configuration, seed): all randomness derives
//     from the seed via split streams, and repeated runs are bit-identical
//     (TestPlanRunMatchesOneShot, the golden digest traces in
//     internal/sim/testdata/golden).
//   - The word-parallel bitset round core and the lane-transposed core
//     produce bit-identical verdicts, and the round core reproduces the
//     scalar and goroutine-per-node reference engines kept in
//     internal/sim's tests (its differential test matrix and the
//     public-API face TestPlanCoresAndEnginesEquivalent) — which is why
//     Compile picks the engine from the scenario alone, with no setting
//     for it, and Config.Fingerprint does not depend on it.
//   - Estimates are independent of the worker count, early stopping cuts
//     the seed sequence only at deterministic batch boundaries, and an
//     estimate resumed from a TallyStore equals a cold run of the same
//     budget and rule bit for bit (TestEstimateStreamStopsPrefix,
//     TestEstimateFromMatchesEstimate, TestStoreBackedEstimateBitIdentity).
//   - A sweep cell's estimate equals plan.Estimate run cell-by-cell with
//     the same budget and the cell's derived seed, regardless of worker
//     count or co-scheduled cells (TestSweepMatchesPerCellEstimate), and
//     cell seeds derive from (sweep seed, cell identity) so editing a grid
//     never perturbs the streams of its unchanged cells.
//   - A distributed estimate or sweep through a cluster coordinator equals
//     the local single-process result bit for bit, including under worker
//     failure mid-run (internal/cluster's bit-identity tests over real
//     HTTP workers).
//
// Lower-level control (custom protocols, custom adversaries, round
// observers, raw round-engine runs) is available in the internal
// packages; see DESIGN.md for the map and internal/service for the
// faultcastd HTTP serving layer built on top.
package faultcast
