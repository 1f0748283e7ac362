package cluster

// WorkerStatus is one worker's health and shard counters as the
// coordinator sees them — surfaced in the coordinator's /v1/stats and
// rendered by `faultcastctl workers`.
type WorkerStatus struct {
	URL string `json:"url"`
	// Healthy is false while the worker is in its down cooldown.
	Healthy bool `json:"healthy"`
	// DownForSeconds is the cooldown remaining before the next probe
	// (0 when healthy).
	DownForSeconds float64 `json:"down_for_seconds,omitempty"`
	// Inflight is the number of shards currently dispatched to the worker.
	Inflight int `json:"inflight"`
	// ShardsOK / ShardsFailed count completed and failed dispatches;
	// ConsecutiveFailures is the current failure streak.
	ShardsOK            uint64 `json:"shards_ok"`
	ShardsFailed        uint64 `json:"shards_failed"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	// TrialsExecuted totals the trials of successfully returned shards.
	TrialsExecuted uint64 `json:"trials_executed"`
	// PlanCacheHits / PlanCompiles split successful shards by whether the
	// worker served them from its plan cache — the cache hit rate the
	// shard protocol is designed to maximize (every shard of a scenario
	// after the first should be a hit).
	PlanCacheHits uint64 `json:"plan_cache_hits"`
	PlanCompiles  uint64 `json:"plan_compiles"`
	// LastError is the most recent dispatch failure, if any.
	LastError string `json:"last_error,omitempty"`
}

// Status is the coordinator's aggregate snapshot.
type Status struct {
	Workers []WorkerStatus `json:"workers"`
	// ShardTrials is the configured (pre-rounding) shard size.
	ShardTrials int `json:"shard_trials"`
	// CellsDistributed counts cells sharded across the fleet; LocalCells
	// counts cells that ran wholly in process (no wire form or no fleet).
	CellsDistributed uint64 `json:"cells_distributed"`
	LocalCells       uint64 `json:"local_cells"`
	// ShardsDiscarded counts shards a cell dispatched whose tallies its
	// merge never consumed: the speculation past the deciding shard (at
	// most workers × WorkerInflight per cell), or every unmerged shard of
	// a cancelled cell.
	ShardsDiscarded uint64 `json:"shards_discarded"`
	// ShardsDispatched counts remote dispatch attempts, ShardRetries the
	// re-routes after a failure, and LocalFailovers the shards that ran
	// out of workers and executed in process.
	ShardsDispatched uint64 `json:"shards_dispatched"`
	ShardRetries     uint64 `json:"shard_retries"`
	LocalFailovers   uint64 `json:"local_failovers"`
}

// Status snapshots the coordinator's workers and counters.
func (c *Coordinator) Status() Status {
	st := Status{
		ShardTrials:      c.opts.ShardTrials,
		CellsDistributed: c.cells.Load(),
		LocalCells:       c.localCells.Load(),
		ShardsDispatched: c.dispatched.Load(),
		ShardRetries:     c.retried.Load(),
		LocalFailovers:   c.failovers.Load(),
		ShardsDiscarded:  c.discarded.Load(),
	}
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		ws := WorkerStatus{
			URL:                 w.url,
			Healthy:             !now.Before(w.downUntil),
			Inflight:            w.inflight,
			ShardsOK:            w.shardsOK,
			ShardsFailed:        w.shardsFailed,
			ConsecutiveFailures: w.consecFails,
			TrialsExecuted:      w.trials,
			PlanCacheHits:       w.planCacheHits,
			PlanCompiles:        w.planCompiles,
			LastError:           w.lastErr,
		}
		if !ws.Healthy {
			ws.DownForSeconds = w.downUntil.Sub(now).Seconds()
		}
		st.Workers = append(st.Workers, ws)
	}
	return st
}
