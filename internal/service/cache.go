package service

import (
	"container/list"
	"sync"

	"faultcast"
	"faultcast/internal/store"
)

// lru is a plain least-recently-used map with a fixed capacity. It is not
// safe for concurrent use; its owners guard it with a mutex (operations
// are O(1) pointer shuffles, never simulations).
type lru[V any] struct {
	capacity int
	order    *list.List // front = most recently used
	entries  map[string]*list.Element
}

type lruItem[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[V]{capacity: capacity, order: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the value for key and marks it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruItem[V]).val, true
	}
	var zero V
	return zero, false
}

// put inserts or replaces key, evicting the least recently used entry
// beyond capacity.
func (c *lru[V]) put(key string, val V) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruItem[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruItem[V]{key: key, val: val})
	if c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruItem[V]).key)
	}
}

func (c *lru[V]) len() int { return c.order.Len() }

// resultEntry is one cached estimate with the plan's round horizon and
// the estimation core that computed it, so a cache hit can answer without
// touching the plan.
type resultEntry struct {
	est    faultcast.Estimate
	rounds int
	core   string
}

// satisfies reports whether the cached estimate already answers a request
// with the given requirement: either the cached 95% interval is at least
// as tight as a requested positive halfWidth, or the cached trial count
// reaches the request's budget — a refinement capped at `trials` could
// not add a single trial, so re-executing would be a no-op that burns an
// admission slot (the cached answer is the request's best effort).
func (e resultEntry) satisfies(trials int, halfWidth float64) bool {
	if e.est.Trials >= trials {
		return true
	}
	return halfWidth > 0 && (e.est.Hi-e.est.Low)/2 <= halfWidth
}

// memTallyStore is the bounded in-memory faultcast.TallyStore of a server
// without -store: the most recently used trial streams, each the bucket
// sequence a durable store would hold for its key. Estimates and sweeps
// resume through it exactly as they resume through internal/store, so an
// answer never depends on which of the two backs the server — or on
// which requests came before it. An evicted stream only costs
// re-simulation.
type memTallyStore struct {
	mu      sync.Mutex
	streams *lru[[]faultcast.TallyBucket]
}

func newMemTallyStore(capacity int) *memTallyStore {
	return &memTallyStore{streams: newLRU[[]faultcast.TallyBucket](capacity)}
}

// LoadTally returns the stored stream. Stored slices are never written in
// place (AppendTally always builds a new one), so the caller may keep it.
func (m *memTallyStore) LoadTally(planKey string, baseSeed uint64, batch int) ([]faultcast.TallyBucket, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	buckets, _ := m.streams.get(store.Key{PlanKey: planKey, BaseSeed: baseSeed, Batch: batch}.String())
	return buckets, nil
}

// AppendTally splices a record into the stream under the durable store's
// contiguity rule (store.SpliceAt).
func (m *memTallyStore) AppendTally(planKey string, baseSeed uint64, batch int, start int, buckets []faultcast.TallyBucket) error {
	key := store.Key{PlanKey: planKey, BaseSeed: baseSeed, Batch: batch}.String()
	m.mu.Lock()
	defer m.mu.Unlock()
	stored, _ := m.streams.get(key)
	keep, err := store.SpliceAt(stored, start)
	if err != nil {
		return err
	}
	m.streams.put(key, append(stored[:keep:keep], buckets...))
	return nil
}
