package sim

import (
	"errors"
	"fmt"

	"faultcast/internal/graph"
	"faultcast/internal/rng"
)

// Model selects the communication semantics.
type Model int

const (
	// MessagePassing lets a node send arbitrary, possibly different,
	// messages to all of its neighbors in each step, all delivered.
	MessagePassing Model = iota
	// Radio lets a node transmit at most one message per step, delivered to
	// all neighbors; a node hears a message iff it is itself silent and
	// exactly one neighbor transmits. Collisions are indistinguishable from
	// silence (no collision detection).
	Radio
)

func (m Model) String() string {
	switch m {
	case MessagePassing:
		return "message-passing"
	case Radio:
		return "radio"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// FaultType selects what a transmitter failure does.
type FaultType int

const (
	// NoFaults disables failures (p is ignored); used for fault-free
	// baselines such as computing opt.
	NoFaults FaultType = iota
	// Omission silences all transmissions of a faulty node for the step.
	Omission
	// Malicious hands the faulty node's transmitter to the adversary for
	// the step: it may alter messages, stay silent, or transmit when the
	// algorithm says to be silent (speak out of turn).
	Malicious
	// LimitedMalicious is the weaker variant used by Theorem 3.2 and the
	// two-node "hello" protocol: the adversary may alter or drop each
	// intended transmission but cannot create new ones, so a silent node
	// stays silent.
	LimitedMalicious
)

func (f FaultType) String() string {
	switch f {
	case NoFaults:
		return "none"
	case Omission:
		return "omission"
	case Malicious:
		return "malicious"
	case LimitedMalicious:
		return "limited-malicious"
	default:
		return fmt.Sprintf("FaultType(%d)", int(f))
	}
}

// Broadcast as a Transmission target means "all neighbors". It is the only
// permitted target in the Radio model.
const Broadcast = -1

// Transmission is one intended or actual message emission.
type Transmission struct {
	// To is a neighbor id, or Broadcast for all neighbors.
	To int
	// Payload is the message content; it must be non-nil (silence is
	// expressed by returning no Transmission at all).
	Payload []byte
}

// Env is the static per-node environment handed to Init. Nodes know n and
// p (the paper assumes both), their own id, the topology, and — only at the
// source — the source message. An Env (and its Rand) is valid for one
// execution: a Runner rewrites it in place for the next trial.
type Env struct {
	ID        int
	N         int
	G         *graph.Graph
	Source    int
	SourceMsg []byte // nil unless ID == Source
	P         float64
	// Rand is this node's private deterministic random stream (derived
	// from the run seed and the node id, identical across engines). The
	// paper's algorithms are deterministic and ignore it; randomized
	// baselines (e.g. the Decay protocol) draw from it. Each node may use
	// its own stream only — sharing streams across nodes would break the
	// concurrent engine's determinism.
	Rand *rng.Source
}

// IsSource reports whether this node is the broadcast source.
func (e *Env) IsSource() bool { return e.ID == e.Source }

// Node is a deterministic per-node protocol instance. The engine drives it
// through rounds: Transmit is called once per round on every node, then
// Deliver zero or more times (message passing) or at most once (radio) with
// that round's receptions, in increasing sender order.
//
// Implementations must be deterministic — the paper's algorithms are — and
// must not retain or mutate slices passed to Deliver beyond the call
// (copy if needed). In turn, the engine reads the slice Transmit returns
// only until that node's next Transmit call (recorded histories copy it),
// so a node may refill and return the same backing array every round.
type Node interface {
	Init(env *Env)
	Transmit(round int) []Transmission
	Deliver(round int, from int, payload []byte)
	// Output returns the node's current belief of the source message, or
	// nil if it has none. The run succeeds iff at the horizon every node's
	// Output equals the source message.
	Output() []byte
}

// Exec is the read-only view of the current execution handed to an
// Adversary each round. The paper's adversary is adaptive: it sees the
// whole history, the algorithm's intended behaviour, and the source
// message.
//
// An Exec is valid only for the duration of the Corrupt call: the engine
// reuses one value across rounds and trials, so adversaries must not
// retain the pointer (copy any fields they need beyond the call).
//
// Inside an engine, Replacements and Transmissions hand out engine-owned
// scratch, recycled at the start of the next Corrupt call, so the
// malicious round allocates nothing at steady state. On a hand-built Exec
// (tests) they fall back to fresh allocations.
type Exec struct {
	G         *graph.Graph
	Model     Model
	Fault     FaultType
	Source    int
	SourceMsg []byte
	P         float64 // the run's per-step failure probability
	Round     int
	// Intents holds every node's intended transmissions this round,
	// indexed by node id. Adversaries must not mutate it.
	Intents [][]Transmission
	// History is non-nil iff Config.RecordHistory; adaptive adversaries
	// that need past deliveries (e.g. the equivocator) require it.
	History *History
	// Rand is the adversary's private random stream (deterministic per
	// seed). Randomized adversary policies draw from it.
	Rand *rng.Source

	repl map[int][]Transmission // Replacements' map, nil on a hand-built Exec
	txs  []Transmission         // Transmissions' arena, truncated per call
}

// Replacements returns an empty replacement map for Corrupt to fill and
// return. The engine clears and reuses it on the next Corrupt call, so an
// adversary must not keep it, or anything it read from it, beyond the call.
func (e *Exec) Replacements() map[int][]Transmission {
	if e.repl == nil {
		return make(map[int][]Transmission)
	}
	return e.repl
}

// Transmissions returns n Transmission slots for Corrupt's replacement
// lists, with unspecified contents the caller overwrites. Slices from
// successive calls within one Corrupt call are disjoint; all of them are
// recycled on the next Corrupt call, after the engine has delivered (and,
// when recording, deep-copied) the round they were returned for.
func (e *Exec) Transmissions(n int) []Transmission {
	used := len(e.txs)
	if used+n > cap(e.txs) {
		// Start a new arena: slices already handed out keep the old one.
		e.txs = make([]Transmission, 0, max(2*cap(e.txs), n, 8))
		used = 0
	}
	e.txs = e.txs[:used+n]
	return e.txs[used : used+n : used+n]
}

// recycle returns the Exec's scratch to empty before a Corrupt call.
func (e *Exec) recycle() {
	clear(e.repl)
	e.txs = e.txs[:0]
}

// Adversary chooses the actual transmissions of faulty nodes in Malicious
// and LimitedMalicious runs.
type Adversary interface {
	// Corrupt returns replacement transmissions for (a subset of) the
	// faulty nodes; nodes absent from the returned map transmit their
	// intent unchanged. Under LimitedMalicious the engine clamps the
	// result so a faulty node cannot gain transmissions it did not intend
	// (it may lose some, and payloads may differ).
	//
	// Lifetimes: faulty (in increasing id order) is engine scratch the
	// adversary may reorder or overwrite in place but must not keep. The
	// returned map and replacement lists are read before the next Corrupt
	// call and not after it, so they may come from e.Replacements and
	// e.Transmissions. Replacement payloads are handed to receiving nodes,
	// which must not mutate them (the Node contract), so an adversary may
	// return the same payload slice every round.
	Corrupt(e *Exec, faulty []int) map[int][]Transmission
}

// The engine's per-round phases, in order:
//
//  1. intents[i] = node[i].Transmit(round), validated against the model;
//  2. each node is declared faulty independently with probability p;
//  3. fault semantics map intents to actual transmissions (silence for
//     omission; adversary's choice, suitably clamped, for malicious);
//  4. the model's delivery rule fires: per-edge delivery for message
//     passing, the exactly-one-transmitting-neighbor rule for radio;
//  5. deliveries are handed to nodes in increasing sender order.
//
// This file defines the shared types; engine.go implements the sequential
// engine and concurrent.go the goroutine-per-node engine.

// Config fully describes a run. The zero value is not runnable; all fields
// below without a "(optional)" note are required.
type Config struct {
	Graph     *graph.Graph
	Model     Model
	Fault     FaultType
	P         float64 // per-step transmitter failure probability in [0,1)
	Source    int
	SourceMsg []byte
	// NewNode constructs the protocol instance for a node id. Factories
	// typically close over centrally precomputed structures (e.g. a BFS
	// tree), which the paper explicitly allows as preprocessing.
	NewNode func(id int) Node
	// Rounds is the horizon; the run stops after exactly this many rounds.
	Rounds int
	// Seed determines the fault pattern and the adversary stream.
	Seed uint64
	// Adversary is required for Malicious/LimitedMalicious runs.
	Adversary Adversary
	// RecordHistory retains per-round actual transmissions and deliveries
	// (memory-proportional to the execution); required by history-driven
	// adversaries and by the trace CLI. (optional)
	RecordHistory bool
	// TrackCompletion makes the engine check after every round whether all
	// outputs are already correct, so Result.CompletedRound reports the
	// measured broadcast time. It costs an O(n) scan per round, so the
	// Monte-Carlo harness enables it only for timing experiments. (optional)
	TrackCompletion bool
	// Observer, if non-nil, is invoked after each round with that round's
	// record (regardless of RecordHistory). (optional)
	Observer func(r *RoundRecord)
	// ScalarCore selects the scalar reference implementation of fault
	// sampling and the delivery rules instead of the word-parallel bitset
	// core. Executions are bit-identical either way — the differential test
	// harness enforces it — so the switch exists only to keep the reference
	// semantics runnable and testable, not as a tuning knob. (optional)
	ScalarCore bool
}

// Validate reports configuration errors before a run starts.
func (c *Config) Validate() error {
	switch {
	case c.Graph == nil:
		return errors.New("sim: Config.Graph is nil")
	case c.Graph.N() == 0:
		return errors.New("sim: empty graph")
	case c.Source < 0 || c.Source >= c.Graph.N():
		return fmt.Errorf("sim: source %d out of range [0,%d)", c.Source, c.Graph.N())
	case len(c.SourceMsg) == 0:
		return errors.New("sim: empty source message")
	case c.NewNode == nil:
		return errors.New("sim: Config.NewNode is nil")
	case c.Rounds < 0:
		return fmt.Errorf("sim: negative rounds %d", c.Rounds)
	case c.Model != MessagePassing && c.Model != Radio:
		return fmt.Errorf("sim: unknown model %d", int(c.Model))
	}
	switch c.Fault {
	case NoFaults:
		// p ignored
	case Omission, Malicious, LimitedMalicious:
		if c.P < 0 || c.P >= 1 {
			return fmt.Errorf("sim: failure probability %v outside [0,1)", c.P)
		}
	default:
		return fmt.Errorf("sim: unknown fault type %d", int(c.Fault))
	}
	if (c.Fault == Malicious || c.Fault == LimitedMalicious) && c.Adversary == nil {
		return errors.New("sim: malicious fault type requires an Adversary")
	}
	return nil
}
