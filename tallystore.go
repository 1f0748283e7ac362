package faultcast

import (
	"errors"

	"faultcast/internal/exec"
	"faultcast/internal/stat"
)

// TallyBucket is one batch of a plan's trial stream in a durable tally
// store: the batch's trial count and how many of those trials succeeded.
// A contiguous bucket sequence starting at trial 0 is a complete record
// of a stream prefix — enough to resume the stream (success counting is
// order-free and seeds are positional) and, bucketed at the stopping
// rule's batch size, enough to replay every stop decision bit-identically.
type TallyBucket struct {
	Trials    int
	Successes int
}

// TallyStore is the persistence seam of WithTallyStore: a durable map
// from (seed-less plan key, base seed, batch granularity) to an
// append-only bucket sequence. internal/store implements it on disk;
// tests implement it in memory. Implementations must be safe for
// concurrent use and must return buckets in trial order, contiguous from
// trial 0.
//
// AppendTally's start names the absolute trial index the record begins
// at. Implementations must keep the stream contiguous: accept a record
// at the current end, let a record starting at an earlier stored bucket
// boundary supersede everything from that boundary on (the writer
// re-simulated the suffix at a different batch decomposition), and
// reject anything else. A superseding record that would end before the
// stream does is refused with ErrTallyShortens, decided against the
// stream as it stands at the append: a writer's load-time view may be
// stale, because another request may have extended the stream in
// between. Append errors are reported but deliberately non-fatal to
// estimation — persistence is best-effort, correctness never depends on
// it.
type TallyStore interface {
	LoadTally(planKey string, baseSeed uint64, batch int) ([]TallyBucket, error)
	AppendTally(planKey string, baseSeed uint64, batch int, start int, buckets []TallyBucket) error
}

// ErrTallyShortens is a TallyStore's refusal of a record that would
// supersede a longer stored suffix: storing it would shorten the stream
// for every later request. It is the expected outcome whenever a smaller
// request re-simulates trials a larger one stored meanwhile, not a
// persistence failure.
var ErrTallyShortens = errors.New("tally record would shorten the stored stream")

// StoreKey returns the plan's seed-less fingerprint — the identity under
// which a TallyStore files this plan's trial streams, equal to
// SweepCell.PlanKey for cells compiled from the same scenario. Two plans
// with equal StoreKeys run bit-identical trial streams from any given
// base seed, which is exactly what makes a stored prefix reusable across
// processes, daemons, and cluster workers. The key is computed on first
// use and memoised.
func (p *Plan) StoreKey() string {
	p.storeKey.once.Do(func() {
		seedless := p.cfg
		seedless.Seed = 0
		seedless.Trace = nil
		p.storeKey.key = seedless.Fingerprint()
	})
	return p.storeKey.key
}

// storeBatch returns the bucket granularity a store keys this stream
// under: the stopping rule's batch when one is active (stop decisions
// happen at its boundaries, so buckets must match them), else the
// default batch — un-ruled streams have no decisions to replay, but
// bucketing them identically lets ruled and un-ruled requests share one
// stored stream.
func storeBatch(rule stat.StopRule) int {
	if rule.Enabled() {
		return rule.BatchSize()
	}
	return stat.DefaultBatch
}

// replayStored folds a stored bucket sequence into the estimate a cold
// (maxTrials, rule) run would have accumulated, stopping exactly where
// the cold run would stop. It returns the resume point for simulation:
// trials [0, p.Trials) are covered by the store, simulation continues at
// p.Trials (done means the stream is already decided — zero trials to
// run).
//
// The bit-identity contract is enforced bucket by bucket. With a rule, a
// stored bucket is consumed only if its size equals the cold run's next
// batch (the fold's Next) — the rule is then consulted at the same
// boundary with the same totals, reproducing the cold decision exactly.
// The first differently-sized bucket (a short tail persisted by a
// smaller budget, say) stops the replay there: that position is a cold
// batch boundary by construction, so simulation resumes on exactly the
// trials the cold run would batch next, and the freshly-appended aligned
// buckets supersede the mismatched tail. Without a rule there are no
// decisions to reproduce — any contiguous prefix that fits the budget is
// consumed whole.
func replayStored(buckets []TallyBucket, maxTrials int, rule stat.StopRule) (p stat.Proportion, done bool) {
	f := stat.Fold{Max: maxTrials, Rule: rule}
	if f.Done() {
		return f.P, true
	}
	for _, b := range buckets {
		// Un-ruled, Next is the whole remaining budget.
		if next := f.Next(); b.Trials > next || (rule.Enabled() && b.Trials != next) {
			return f.P, false
		}
		if f.Add(b.Trials, b.Successes) {
			return f.P, true
		}
	}
	return f.P, false
}

// resumeFromStore is the durable resume of a cell with no prior trials:
// it loads the stream's stored prefix, replays it through the cell's
// rule at cold batch boundaries, and sets the cell to start simulating
// where the replay runs out. The cell folds in store-batch buckets even
// without a rule — no stop decision depends on it there — so the
// persisted decomposition is shared with ruled requests; the returned
// recorder collects those buckets for one append once the cell
// completes. A load error just means a cold run; the append then
// restocks.
func resumeFromStore(store TallyStore, planKey string, cell *exec.Cell) *tallyRecorder {
	batch := storeBatch(cell.Rule)
	if stored, err := store.LoadTally(planKey, cell.BaseSeed, batch); err == nil {
		cell.Start, _ = replayStored(stored, cell.MaxTrials, cell.Rule)
	}
	rec := &tallyRecorder{store: store, planKey: planKey, baseSeed: cell.BaseSeed, batch: batch,
		start: cell.Start.Trials}
	cell.Bucket = batch
	cell.OnBatch = rec.observe
	return rec
}

// tallyRecorder accumulates the batches a cell folds beyond its stored
// prefix, for one append after the cell completes. exec serializes
// OnBatch per cell (under the scheduler lock, or on the coordinator's
// replay goroutine) and onDone observes all of them, so no further
// locking is needed; a cell abandoned mid-stream simply never flushes.
type tallyRecorder struct {
	store    TallyStore
	planKey  string
	baseSeed uint64
	batch    int
	start    int // trial index of the first recorded bucket
	buckets  []TallyBucket
}

// observe is the exec.Cell OnBatch hook.
func (r *tallyRecorder) observe(trials, successes int) {
	r.buckets = append(r.buckets, TallyBucket{Trials: trials, Successes: successes})
}

// flush appends the recorded batches. The store refuses them when they
// would shorten the stream (ErrTallyShortens) and otherwise lets them
// replace a mismatched tail with buckets aligned to the cold batch
// boundaries; persistence errors are the store's to count, never the
// estimate's to fail on.
func (r *tallyRecorder) flush() {
	if r == nil || len(r.buckets) == 0 {
		return
	}
	_ = r.store.AppendTally(r.planKey, r.baseSeed, r.batch, r.start, r.buckets)
}
