// Package cluster is the coordinator/worker layer that lets one faultcast
// process fan Monte-Carlo work out across many: a Coordinator implements
// exec.Dispatcher by splitting each estimation cell's trial budget into
// fixed-size shards, dispatching them to remote faultcastd workers over
// POST /v1/shard, and replaying the stopping rule over the merged
// per-batch tallies — so a distributed estimate is bit-identical to the
// single-process run, whatever machines executed the shards, however they
// raced, and whichever of them failed along the way.
//
// # Shard lifecycle and determinism
//
// A shard is (canonical scenario, shard index, trial range): shard k of a
// cell resumed at trial T0 covers trials [T0+k·S, T0+(k+1)·S) of the
// cell's seed sequence, so its base seed is derived from the cell seed
// and shard index as cellSeed + (T0 + k·S) — the continuation of the very
// stream the local run would execute, which is what makes the merged
// result the same prefix. S is the coordinator's ShardTrials rounded up
// to a multiple of the cell's stop-rule batch, and workers return success
// counts bucketed at exactly that batch, so the concatenated buckets of a
// sharded run are the local run's batch sequence and folding them through
// the same stat.Fold the local scheduler uses reproduces its stop
// decisions bit-for-bit. Workers never apply a
// stopping rule themselves — they cannot know the merged prefix a shard
// lands in — which also makes shards idempotent: a dropped shard is
// re-dispatched to another worker (or run locally) and whichever copy
// returns is the same pure function of the shard spec.
package cluster

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"

	"faultcast"
	"faultcast/internal/graph"
	"faultcast/internal/stat"
	"faultcast/internal/telemetry"
)

// ErrPlanKeyMismatch reports that a worker's rebuilt scenario hashed to a
// different seed-less fingerprint than the coordinator's — codec or
// version drift that must fail the shard loudly rather than fold wrong
// trials into an estimate.
var ErrPlanKeyMismatch = errors.New("cluster: rebuilt scenario does not match the coordinator's plan key")

// ShardRequest is the body of POST /v1/shard: a self-contained scenario
// (the graph shipped structurally, so the worker needs no spec grammar,
// file access, or seed-dependent regeneration) plus one shard of its
// trial stream. Engine selectors and traces are deliberately absent —
// they are proven not to change results, so the worker always runs its
// fastest engine.
type ShardRequest struct {
	// Graph is the topology in graph.WriteEdgeList text form ("n <count>"
	// header, one "u v" pair per line).
	Graph string `json:"graph"`
	// Scenario fields, in the /v1/estimate vocabulary.
	Source    int     `json:"source"`
	Message   string  `json:"message"`
	Model     string  `json:"model"`
	Fault     string  `json:"fault"`
	Adversary string  `json:"adversary"`
	Algorithm string  `json:"algorithm"`
	P         float64 `json:"p"`
	WindowC   float64 `json:"window_c,omitempty"`
	Alpha     float64 `json:"alpha,omitempty"`
	Rounds    int     `json:"rounds,omitempty"`
	// PlanKey is the coordinator's seed-less Config.Fingerprint. The
	// worker recomputes it from the rebuilt scenario and refuses the shard
	// on mismatch, so the two sides can never silently diverge on what
	// computation the tallies belong to. It is also the worker's plan
	// cache key: every shard of a scenario compiles at most once there.
	PlanKey string `json:"plan_key"`

	// Index is the shard's position within its cell (diagnostic only —
	// the trial range below is authoritative).
	Index int `json:"index"`
	// BaseSeed is the seed of the shard's first trial; trial i of the
	// shard runs with BaseSeed+i.
	BaseSeed uint64 `json:"base_seed"`
	// Trials is the shard's trial count; Batch the tally bucket size.
	Trials int `json:"trials"`
	Batch  int `json:"batch"`
}

// ShardResponse is the body of a successful POST /v1/shard.
type ShardResponse struct {
	// Key echoes the worker's recomputed seed-less plan key.
	Key string `json:"key"`
	// Index echoes the request's shard index.
	Index int `json:"index"`
	// Trials, Batch, and Successes are the shard's tally: Successes[i]
	// counts successes among shard trials [i*Batch, min((i+1)*Batch, Trials)).
	Trials    int   `json:"trials"`
	Batch     int   `json:"batch"`
	Successes []int `json:"successes"`
	// PlanSource says whether the worker served the shard from its plan
	// cache ("cache") or compiled the scenario for it ("compiled") — the
	// coordinator aggregates these into per-worker cache hit rates.
	PlanSource string `json:"plan_source"`
	// Trace, present only when the request carried an X-Faultcast-Trace
	// header, is the worker-side span tree of this shard's execution —
	// detached telemetry data the coordinator grafts under its dispatch
	// span, so a distributed sweep renders as one tree with per-shard
	// worker timings. Strictly observational: it never participates in
	// tally validation.
	Trace *telemetry.Span `json:"trace,omitempty"`
}

// Tally converts the response into the coordinator's merge format.
func (r *ShardResponse) Tally() stat.Tally {
	return stat.Tally{Trials: r.Trials, Batch: r.Batch, Successes: r.Successes}
}

// NewShardRequest lowers a scenario to the wire, leaving the shard fields
// (Index, BaseSeed, Trials, Batch) for the dispatch loop to fill. It
// fails on scenarios the wire cannot carry faithfully (nil graph,
// non-UTF-8 message) — the coordinator then falls back to local
// execution, which needs no wire at all.
func NewShardRequest(cfg faultcast.Config) (ShardRequest, error) {
	if cfg.Graph == nil {
		return ShardRequest{}, errors.New("cluster: scenario without a graph")
	}
	if !utf8.Valid(cfg.Message) {
		return ShardRequest{}, errors.New("cluster: non-UTF-8 message cannot ship as JSON")
	}
	var edges strings.Builder
	if err := cfg.Graph.WriteEdgeList(&edges); err != nil {
		return ShardRequest{}, err
	}
	seedless := cfg
	seedless.Seed = 0
	seedless.Trace = nil
	return ShardRequest{
		Graph:     edges.String(),
		Source:    cfg.Source,
		Message:   string(cfg.Message),
		Model:     cfg.Model.String(),
		Fault:     cfg.Fault.String(),
		Adversary: cfg.Adversary.String(),
		Algorithm: cfg.Algorithm.String(),
		P:         cfg.P,
		WindowC:   cfg.WindowC,
		Alpha:     cfg.Alpha,
		Rounds:    cfg.Rounds,
		PlanKey:   seedless.Fingerprint(),
	}, nil
}

// Config rebuilds the seed-less scenario on the worker side, validating
// every field (the request came over the network and is never trusted)
// and verifying the plan-key integrity check. The enum fields round-trip
// through the Parse*(String()) identities the parse round-trip tests pin.
func (r *ShardRequest) Config() (faultcast.Config, error) {
	if len(r.Graph) == 0 {
		return faultcast.Config{}, errors.New("cluster: shard without a graph")
	}
	g, err := graph.ReadEdgeList(strings.NewReader(r.Graph), "shard")
	if err != nil {
		return faultcast.Config{}, err
	}
	if err := g.Validate(); err != nil {
		return faultcast.Config{}, fmt.Errorf("cluster: shard graph: %w", err)
	}
	if r.Source < 0 || r.Source >= g.N() {
		return faultcast.Config{}, fmt.Errorf("cluster: shard source %d out of range [0, %d)", r.Source, g.N())
	}
	if r.Message == "" {
		return faultcast.Config{}, errors.New("cluster: shard with an empty message")
	}
	if r.P < 0 || r.P >= 1 {
		return faultcast.Config{}, fmt.Errorf("cluster: shard p=%v outside [0, 1)", r.P)
	}
	if r.WindowC < 0 || r.Alpha < 0 || r.Rounds < 0 {
		return faultcast.Config{}, errors.New("cluster: shard with negative window constant, alpha, or rounds")
	}
	cfg := faultcast.Config{
		Graph:   g,
		Source:  r.Source,
		Message: []byte(r.Message),
		P:       r.P,
		WindowC: r.WindowC,
		Alpha:   r.Alpha,
		Rounds:  r.Rounds,
	}
	if cfg.Model, err = faultcast.ParseModel(r.Model); err != nil {
		return faultcast.Config{}, err
	}
	if cfg.Fault, err = faultcast.ParseFault(r.Fault); err != nil {
		return faultcast.Config{}, err
	}
	if cfg.Adversary, err = faultcast.ParseAdversary(r.Adversary); err != nil {
		return faultcast.Config{}, err
	}
	if cfg.Algorithm, err = faultcast.ParseAlgorithm(r.Algorithm); err != nil {
		return faultcast.Config{}, err
	}
	if r.PlanKey != "" && cfg.Fingerprint() != r.PlanKey {
		return faultcast.Config{}, ErrPlanKeyMismatch
	}
	return cfg, nil
}

// CheckShard validates the shard-range fields against a worker's trial
// cap. Separate from Config so the scenario and the range fail with
// distinct messages.
func (r *ShardRequest) CheckShard(maxTrials int) error {
	if r.Trials < 1 {
		return fmt.Errorf("cluster: shard with %d trials", r.Trials)
	}
	if r.Trials > maxTrials {
		return fmt.Errorf("cluster: shard of %d trials exceeds this worker's cap of %d", r.Trials, maxTrials)
	}
	if r.Batch < 1 || r.Batch > r.Trials {
		return fmt.Errorf("cluster: shard batch %d outside [1, %d]", r.Batch, r.Trials)
	}
	return nil
}
