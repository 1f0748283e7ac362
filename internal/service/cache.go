package service

import (
	"container/list"
	"sync"

	"faultcast"
	"faultcast/internal/store"
)

// lru is a plain least-recently-used map bounded by the total cost of its
// entries. It is not safe for concurrent use; its owners guard it with a
// mutex (operations are O(1) pointer shuffles, never simulations).
type lru[V any] struct {
	capacity int
	used     int
	order    *list.List // front = most recently used
	entries  map[string]*list.Element
}

type lruItem[V any] struct {
	key  string
	val  V
	cost int
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

// put inserts or replaces key at the given cost, then evicts least
// recently used entries until the total cost fits the capacity. The entry
// just put is never evicted, so one entry costlier than the whole
// capacity is still kept, alone.
func (c *lru[V]) put(key string, val V, cost int) {
	if el, ok := c.entries[key]; ok {
		c.used -= c.order.Remove(el).(*lruItem[V]).cost
	}
	c.entries[key] = c.order.PushFront(&lruItem[V]{key: key, val: val, cost: cost})
	c.used += cost
	for c.used > c.capacity && c.order.Len() > 1 {
		oldest := c.order.Remove(c.order.Back()).(*lruItem[V])
		delete(c.entries, oldest.key)
		c.used -= oldest.cost
	}
}

func (c *lru[V]) len() int { return c.order.Len() }

// memTallyStore is the bounded in-memory faultcast.TallyStore of a server
// without -store: the most recently used trial streams, each the bucket
// sequence a durable store would hold for its key, at most capacity
// buckets in all. Estimates and sweeps resume through it exactly as they
// resume through internal/store, so an answer never depends on which of
// the two backs the server — or on which requests came before it. An
// evicted stream only costs re-simulation.
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
// append rule (store.Splice), refusing one that would shorten it.
func (m *memTallyStore) AppendTally(planKey string, baseSeed uint64, batch int, start int, buckets []faultcast.TallyBucket) error {
	key := store.Key{PlanKey: planKey, BaseSeed: baseSeed, Batch: batch}.String()
	m.mu.Lock()
	defer m.mu.Unlock()
	stored, _ := m.streams.get(key)
	keep, err := store.Splice(stored, start, buckets)
	if err != nil {
		return err
	}
	spliced := append(stored[:keep:keep], buckets...)
	m.streams.put(key, spliced, len(spliced))
	return nil
}
