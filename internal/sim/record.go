package sim

// Received is one delivered message as seen by a receiver.
type Received struct {
	From    int
	Payload []byte
}

// RoundRecord captures everything that happened in one round. The engine
// builds one per round for Config.Observer.
type RoundRecord struct {
	Round  int
	Faulty []int // ids whose transmitter failed this round, increasing
	// Actual holds the post-fault transmissions per node id. For
	// non-faulty nodes it aliases the intent; treat as read-only.
	Actual [][]Transmission
	// Delivered holds the messages each node received this round, in the
	// order they were delivered (increasing sender id).
	Delivered [][]Received
	// Collisions counts radio receivers that had two or more transmitting
	// neighbors this round (always 0 for message passing).
	Collisions int
}

// Stats aggregates an execution for reporting.
type Stats struct {
	Rounds        int
	Faults        int // (node, round) transmitter failures
	Transmissions int // actual post-fault transmissions (Broadcast counts once)
	Deliveries    int // messages handed to Deliver
	Collisions    int // radio collision events (receiver-rounds)
}

// Result summarizes a run.
type Result struct {
	// Success is true iff every node's Output equals the source message at
	// the horizon.
	Success bool
	// FirstFailed is the smallest node id whose output was wrong, or -1 on
	// success.
	FirstFailed int
	// CompletedRound is the first round index after which every node's
	// output was already correct, or -1 if that never happened. It is the
	// measured broadcast time of the execution.
	CompletedRound int
	// InformedRound, populated only when Config.TrackCompletion is set,
	// gives per node the first round index after which its output equaled
	// the source message (-1 = never). It is the raw data behind
	// informing-curve figures.
	InformedRound []int
	Outputs       [][]byte
	Stats         Stats
}
