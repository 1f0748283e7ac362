package sim

import (
	"bytes"
	"fmt"
	"math/bits"

	"faultcast/internal/bitset"
	"faultcast/internal/rng"
)

// Run executes the configuration on the round engine and returns the
// result. Trial streams over a fixed configuration should use a Runner,
// which reuses the run state instead of reallocating it per trial.
func Run(cfg *Config) (*Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(cfg.Seed)
}

// Runner executes many independent trials of one configuration on the
// sequential engine, reusing the execution state (transmission, delivery,
// and fault buffers) across trials instead of allocating it per run. A
// trial with a given seed is bit-identical to Run with that seed.
//
// A Runner is NOT safe for concurrent use: give each worker goroutine its
// own Runner (they may share the *Config, which the Runner never mutates).
type Runner struct {
	cfg *Config
	st  *runState
}

// NewRunner validates the configuration once and returns a reusable runner.
// Config.Seed is ignored; each trial's seed is passed to Run.
func NewRunner(cfg *Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg, st: allocRunState(cfg)}, nil
}

// Run executes one trial with the given seed. The returned Result does not
// alias mutable runner state and stays valid across subsequent trials.
func (r *Runner) Run(seed uint64) (*Result, error) {
	st := r.st
	if err := st.Reset(seed); err != nil {
		return nil, err
	}
	for round := 0; round < r.cfg.Rounds; round++ {
		if err := st.transmitPhase(round); err != nil {
			return nil, err
		}
		if err := st.faultAndDeliver(round); err != nil {
			return nil, err
		}
		st.deliverPhase(round)
		st.finishRound(round)
	}
	return st.result(), nil
}

// runState holds all mutable execution state of one run, shared with the
// reference engines in the tests (the scalar core and the
// goroutine-per-node engine). It is allocated once (allocRunState) and
// rewound to a fresh execution by Reset, so a Runner can stream trials
// without reallocating its buffers.
type runState struct {
	cfg      *Config
	n        int
	nodes    []Node
	faultRnd rng.Source // reseeded in place by Reset, like advRnd
	advRnd   rng.Source

	// Per-node streams and environments, rewritten in place by Reset.
	nodeSrcs []rng.Source
	envs     []Env

	intents   [][]Transmission
	actual    [][]Transmission
	delivered [][]Received
	faulty    []int
	advFaulty []int // the adversary's copy of faulty, reused

	// Word-parallel round core scratch (see faultAndDeliver). All sets
	// live over the vertex universe [0, n) and are reused across rounds
	// and trials; none are observable outside a round.
	faultMask    bitset.Set // this round's faulty transmitters
	intentMask   bitset.Set // nodes with >= 1 intended transmission
	transmitMask bitset.Set // nodes with >= 1 actual transmission
	seenOnce     bitset.Set // radio: covered by >= 1 transmitter
	seenTwice    bitset.Set // radio: covered by >= 2 transmitters
	talkers      []int      // transmitMask as ids, reused
	limSlots     []int      // checkLimitedInto scratch, len n+1, all zero between calls
	exec         Exec       // adversary view, static fields set per trial

	stats          Stats
	lastCollisions int
	completedRound int
	informedRound  []int
	trackDone      bool
	doneAt         bool // completion already observed
}

// allocRunState allocates the per-execution buffers without initializing an
// execution; Reset must be called before the first round.
func allocRunState(cfg *Config) *runState {
	n := cfg.Graph.N()
	st := &runState{
		cfg:          cfg,
		n:            n,
		nodes:        make([]Node, n),
		intents:      make([][]Transmission, n),
		actual:       make([][]Transmission, n),
		delivered:    make([][]Received, n),
		faultMask:    bitset.New(n),
		intentMask:   bitset.New(n),
		transmitMask: bitset.New(n),
		seenOnce:     bitset.New(n),
		seenTwice:    bitset.New(n),
		limSlots:     make([]int, n+1),
		nodeSrcs:     make([]rng.Source, n),
		envs:         make([]Env, n),
		trackDone:    cfg.TrackCompletion,
	}
	if cfg.Adversary != nil {
		st.exec.repl = make(map[int][]Transmission)
	}
	if cfg.TrackCompletion {
		st.informedRound = make([]int, n)
	}
	return st
}

// Reset rewinds the state to the start of a fresh execution with the given
// seed. The RNG stream derivation (fault stream, adversary stream, one
// stream per node, in that order) matches a from-scratch run exactly, so a
// reused state is bit-identical to a freshly allocated one. Each stream is
// reseeded in place exactly as Split would seed a new one.
func (st *runState) Reset(seed uint64) error {
	cfg := st.cfg
	var master rng.Source
	master.Seed(seed)
	st.faultRnd.Seed(master.Uint64())
	st.advRnd.Seed(master.Uint64())
	st.stats = Stats{}
	st.lastCollisions = 0
	st.completedRound = -1
	st.doneAt = false
	st.faulty = st.faulty[:0]
	st.exec = Exec{
		G:         cfg.Graph,
		Model:     cfg.Model,
		Fault:     cfg.Fault,
		Source:    cfg.Source,
		SourceMsg: cfg.SourceMsg,
		P:         cfg.P,
		Intents:   st.intents,
		Rand:      &st.advRnd,
		repl:      st.exec.repl,
		txs:       st.exec.txs,
	}
	for i := 0; i < st.n; i++ {
		st.intents[i] = nil
		st.actual[i] = nil
		st.delivered[i] = st.delivered[i][:0]
	}
	for i := range st.informedRound {
		st.informedRound[i] = -1
	}
	var nodeSeeds rng.Source
	nodeSeeds.Seed(master.Uint64())
	for id := 0; id < st.n; id++ {
		node := cfg.NewNode(id)
		if node == nil {
			return fmt.Errorf("sim: NewNode(%d) returned nil", id)
		}
		st.nodeSrcs[id].Seed(nodeSeeds.Uint64())
		env := &st.envs[id]
		*env = Env{
			ID: id, N: st.n, G: cfg.Graph, Source: cfg.Source, P: cfg.P,
			Rand: &st.nodeSrcs[id],
		}
		if id == cfg.Source {
			env.SourceMsg = cfg.SourceMsg
		}
		node.Init(env)
		st.nodes[id] = node
	}
	return nil
}

// transmitPhase collects and validates every node's intent (sequentially).
func (st *runState) transmitPhase(round int) error {
	for id := 0; id < st.n; id++ {
		ts := st.nodes[id].Transmit(round)
		if err := st.validateTransmissions(id, ts); err != nil {
			return fmt.Errorf("sim: round %d: %w", round, err)
		}
		st.intents[id] = ts
	}
	return nil
}

func (st *runState) validateTransmissions(id int, ts []Transmission) error {
	if st.cfg.Model == Radio {
		if len(ts) > 1 {
			return fmt.Errorf("node %d returned %d transmissions in the radio model (max 1)", id, len(ts))
		}
		if len(ts) == 1 && ts[0].To != Broadcast {
			return fmt.Errorf("node %d used a directed transmission in the radio model", id)
		}
	}
	for _, t := range ts {
		if t.Payload == nil {
			return fmt.Errorf("node %d transmitted a nil payload (return no Transmission for silence)", id)
		}
		if t.To != Broadcast && !st.cfg.Graph.HasEdge(id, t.To) {
			return fmt.Errorf("node %d addressed non-neighbor %d", id, t.To)
		}
	}
	return nil
}

// faultAndDeliver samples faults, applies fault semantics, and computes
// this round's deliveries into st.delivered: the word-parallel round core.
func (st *runState) faultAndDeliver(round int) error {
	// Phase 2: sample faults. rng.BernoulliMask fills the fault mask with
	// one draw per node in id order (the scalar reference's per-id
	// Bernoulli order), so the fault pattern is fixed by the seed alone.
	// The id list serves the adversary, stats, and observer; the mask
	// serves silencing and the corruption guard.
	st.faulty = st.faulty[:0]
	if st.cfg.Fault != NoFaults {
		st.faultRnd.BernoulliMask(st.cfg.P, st.n, st.faultMask)
		st.faulty = st.faultMask.AppendIDs(st.faulty)
	}
	if err := st.applyFaults(round); err != nil {
		return err
	}
	if st.cfg.Model == MessagePassing {
		st.deliverMessagePassingBitset()
	} else {
		st.deliverRadioBitset(round)
	}
	return nil
}

// applyFaults is phase 3 over this round's sampled faults (st.faulty and
// st.faultMask): it maps intents to actual transmissions, maintaining
// transmitMask = { id : len(actual[id]) > 0 }, and empties the delivery
// lists for phase 4. The scalar reference core in the tests samples and
// delivers on its own but runs this same phase.
func (st *runState) applyFaults(round int) error {
	st.stats.Faults += len(st.faulty)
	// The intent mask is rebuilt centrally (not in transmitPhase) because
	// the concurrent reference engine's workers write st.intents in
	// parallel and must not share mask words.
	st.intentMask.Clear()
	for id := 0; id < st.n; id++ {
		if len(st.intents[id]) > 0 {
			st.intentMask.Add(id)
		}
	}
	copy(st.actual, st.intents)
	st.transmitMask.Copy(st.intentMask)
	switch st.cfg.Fault {
	case NoFaults:
	case Omission:
		// Omission silencing is a mask intersection: transmitters are the
		// intenders minus this round's faulty set.
		st.transmitMask.AndNot(st.faultMask)
		for _, id := range st.faulty {
			st.actual[id] = nil
		}
	case Malicious, LimitedMalicious:
		if len(st.faulty) > 0 {
			st.exec.Round = round
			st.exec.recycle()
			st.advFaulty = append(st.advFaulty[:0], st.faulty...)
			repl := st.cfg.Adversary.Corrupt(&st.exec, st.advFaulty)
			if err := st.applyCorruption(repl); err != nil {
				return fmt.Errorf("sim: round %d: %w", round, err)
			}
		}
	}

	// Truncate (not nil) so a reused state keeps its per-receiver backing
	// arrays across rounds and trials; receivers must not retain the
	// slices (the Node contract), and observer records are deep-cloned.
	for i := range st.delivered {
		st.delivered[i] = st.delivered[i][:0]
	}
	return nil
}

// applyCorruption installs the adversary's replacement transmissions,
// walking st.faulty (already in increasing id order) instead of sorting the
// replacement map's keys, and checking membership against the fault mask
// instead of building a per-round map — the corruption path allocates
// nothing beyond what the adversary itself allocated (nothing, for one
// built on Exec.Replacements and Exec.Transmissions).
func (st *runState) applyCorruption(repl map[int][]Transmission) error {
	if len(repl) == 0 {
		return nil
	}
	// Errors are reported for the smallest problematic id, exactly as the
	// old sorted walk did: find the smallest healthy target up front, then
	// merge it into the increasing walk over the faulty ids.
	offender := -1
	for id := range repl {
		if (id < 0 || id >= st.n || !st.faultMask.Contains(id)) && (offender == -1 || id < offender) {
			offender = id
		}
	}
	for _, id := range st.faulty {
		if offender != -1 && offender < id {
			return fmt.Errorf("adversary corrupted non-faulty node %d", offender)
		}
		ts, ok := repl[id]
		if !ok {
			continue
		}
		if err := st.validateTransmissions(id, ts); err != nil {
			return fmt.Errorf("adversary: %w", err)
		}
		if st.cfg.Fault == LimitedMalicious {
			if err := checkLimitedInto(st.limSlots, st.intents[id], ts); err != nil {
				return fmt.Errorf("adversary violated limited-malicious constraint at node %d: %w", id, err)
			}
		}
		st.actual[id] = ts
		if len(ts) > 0 {
			st.transmitMask.Add(id)
		} else {
			st.transmitMask.Remove(id)
		}
	}
	if offender != -1 {
		return fmt.Errorf("adversary corrupted non-faulty node %d", offender)
	}
	return nil
}

// checkLimitedInto verifies that actual is obtainable from intent by
// altering payloads and dropping transmissions: for every destination, the
// adversary may emit at most as many transmissions as were intended to it.
// slots is caller-provided scratch: it must hold maxTo+2 counters (index
// To+1; Broadcast is -1) and be all-zero; it is restored to all-zero
// before returning, so a runState can reuse one buffer for every
// corrupted node without clearing it in between.
func checkLimitedInto(slots []int, intent, actual []Transmission) error {
	for _, t := range intent {
		slots[t.To+1]++
	}
	var err error
	for _, t := range actual {
		if slots[t.To+1] == 0 {
			err = fmt.Errorf("transmission to %d was not intended (limited-malicious cannot speak out of turn)", t.To)
			break
		}
		slots[t.To+1]--
	}
	// Every touched counter is indexed by an intent destination (actual
	// destinations either hit one of those or were left at zero), so
	// re-walking the intent restores the all-zero invariant.
	for _, t := range intent {
		slots[t.To+1] = 0
	}
	return err
}

// deliverMessagePassingBitset is the word-parallel message-passing rule:
// senders are iterated straight off the transmit mask (skipping silent
// nodes 64 at a time), and each broadcast walks the sender's cached
// adjacency bitset row instead of invoking a per-neighbor callback.
// Receiver lists are identical to the scalar rule's: senders come off the
// mask in increasing id order, rows iterate in increasing receiver order.
func (st *runState) deliverMessagePassingBitset() {
	g := st.cfg.Graph
	st.talkers = st.transmitMask.AppendIDs(st.talkers[:0])
	for _, from := range st.talkers {
		for i := range st.actual[from] {
			t := &st.actual[from][i]
			st.stats.Transmissions++
			if t.To == Broadcast {
				for wi, word := range g.AdjacencyRow(from) {
					base := wi << 6
					for word != 0 {
						w := base + bits.TrailingZeros64(word)
						word &= word - 1
						st.delivered[w] = append(st.delivered[w], Received{From: from, Payload: t.Payload})
						st.stats.Deliveries++
					}
				}
			} else {
				st.delivered[t.To] = append(st.delivered[t.To], Received{From: from, Payload: t.Payload})
				st.stats.Deliveries++
			}
		}
	}
}

// deliverRadioBitset is the word-parallel radio collision rule. Folding
// each transmitter's adjacency row into seen-once/seen-twice accumulators
// gives, in O(|transmitters| * n/64) word operations,
//
//	heard     = (seenOnce \ seenTwice) \ transmitters
//	collision = seenTwice \ transmitters
//
// exactly the scalar rule's "a node hears iff it is silent and exactly one
// neighbor transmits", with collisions counted per silent receiver.
func (st *runState) deliverRadioBitset(round int) {
	g := st.cfg.Graph
	st.talkers = st.transmitMask.AppendIDs(st.talkers[:0])
	st.seenOnce.Clear()
	st.seenTwice.Clear()
	for _, w := range st.talkers {
		row := g.AdjacencyRow(w)
		st.seenTwice.OrAnd(st.seenOnce, row)
		st.seenOnce.Or(row)
	}
	collisions := st.seenTwice.CountAndNot(st.transmitMask)
	// Reduce seenOnce to the heard set in place (it is rebuilt next round).
	st.seenOnce.AndNot(st.seenTwice)
	st.seenOnce.AndNot(st.transmitMask)
	for wi, word := range st.seenOnce {
		base := wi << 6
		for word != 0 {
			v := base + bits.TrailingZeros64(word)
			word &= word - 1
			// v's unique transmitting neighbor is the sole element of
			// adj(v) ∩ transmitters.
			talker := bitset.FirstCommon(g.AdjacencyRow(v), st.transmitMask)
			st.delivered[v] = append(st.delivered[v], Received{From: talker, Payload: st.actual[talker][0].Payload})
			st.stats.Deliveries++
		}
	}
	st.stats.Transmissions += len(st.talkers)
	st.stats.Collisions += collisions
	st.lastCollisions = collisions
}

// deliverPhase hands this round's receptions to the nodes (sequentially).
func (st *runState) deliverPhase(round int) {
	for v := 0; v < st.n; v++ {
		for _, r := range st.delivered[v] {
			st.nodes[v].Deliver(round, r.From, r.Payload)
		}
	}
}

// finishRound builds the observer's record and tracks completion.
func (st *runState) finishRound(round int) {
	st.stats.Rounds = round + 1
	if st.cfg.Observer != nil {
		st.cfg.Observer(&RoundRecord{
			Round:      round,
			Faulty:     append([]int(nil), st.faulty...),
			Actual:     cloneTransmissions(st.actual),
			Delivered:  cloneReceived(st.delivered),
			Collisions: st.lastCollisions,
		})
	}
	st.lastCollisions = 0
	if st.trackDone && !st.doneAt {
		all := true
		for id, node := range st.nodes {
			correct := bytes.Equal(node.Output(), st.cfg.SourceMsg)
			if correct && st.informedRound[id] == -1 {
				st.informedRound[id] = round
			}
			if !correct {
				all = false
				// A node can in principle revert (e.g. a vote flips);
				// first-informed semantics keep the earlier round.
			}
		}
		if all {
			st.completedRound = round
			st.doneAt = true
		}
	}
}

func (st *runState) result() *Result {
	res := &Result{
		Success:        true,
		FirstFailed:    -1,
		CompletedRound: st.completedRound,
		Outputs:        make([][]byte, st.n),
		Stats:          st.stats,
	}
	if st.informedRound != nil {
		// Copy: the state (and this slice) is rewound on the next Reset,
		// and the Result must stay valid across a Runner's trial stream.
		res.InformedRound = append([]int(nil), st.informedRound...)
	}
	for id, node := range st.nodes {
		out := node.Output()
		res.Outputs[id] = out
		if res.Success && !bytes.Equal(out, st.cfg.SourceMsg) {
			res.Success = false
			res.FirstFailed = id
		}
	}
	if res.Success && !st.trackDone {
		res.CompletedRound = st.stats.Rounds - 1
	}
	if !res.Success {
		res.CompletedRound = -1
	}
	return res
}

func cloneTransmissions(src [][]Transmission) [][]Transmission {
	out := make([][]Transmission, len(src))
	for i, ts := range src {
		if len(ts) == 0 {
			continue
		}
		cp := make([]Transmission, len(ts))
		for j, t := range ts {
			cp[j] = Transmission{To: t.To, Payload: append([]byte(nil), t.Payload...)}
		}
		out[i] = cp
	}
	return out
}

func cloneReceived(src [][]Received) [][]Received {
	out := make([][]Received, len(src))
	for i, rs := range src {
		if len(rs) == 0 {
			continue
		}
		cp := make([]Received, len(rs))
		for j, r := range rs {
			cp[j] = Received{From: r.From, Payload: append([]byte(nil), r.Payload...)}
		}
		out[i] = cp
	}
	return out
}
