package serve

import (
	"sync"
	"sync/atomic"

	"aim/internal/core"
	"aim/internal/planstore"
)

// Key identifies one compiled plan: exactly the inputs the offline
// phase consumes. Runtime knobs (β, worker counts, fidelity tier) are
// deliberately absent — they vary per request without recompiling.
type Key struct {
	// Network is the zoo workload name.
	Network string
	// Mode is the operating policy (its string form keeps the key
	// printable and comparable).
	Mode string
	// Bits is the quantization width.
	Bits int
	// Delta is the canonical WDS δ (0 = disabled).
	Delta int
	// Seed drives every stochastic component of the compilation.
	Seed int64
}

// storeKey maps the cache key onto the persistent store's key — the
// same five fields; the store adds the code-version generation to the
// content hash on its side.
func (k Key) storeKey() planstore.Key {
	return planstore.Key{Network: k.Network, Mode: k.Mode, Bits: k.Bits, Delta: k.Delta, Seed: k.Seed}
}

// entry is one singleflight cache slot.
type entry struct {
	once sync.Once
	plan *core.Plan
	err  error
}

// Cache is the shared, concurrency-safe plan cache. Lookups for a
// missing key compile exactly once no matter how many goroutines ask
// concurrently: late arrivals block on the winner's singleflight entry
// instead of stampeding the compiler. Failed compilations (unknown
// network) are cached too — the error is deterministic.
//
// With a persistent store attached (see NewCacheWithStore) the cache
// is the top of a three-level hierarchy: the singleflight map, then
// the store's decoded-plan LRU, then its on-disk backend. The store is
// consulted inside the singleflight slot, so a fleet replica
// restarting against a warm disk pays one read+decode per key instead
// of one compile — and a corrupt or stale entry silently degrades to
// the compile path.
type Cache struct {
	mu       sync.Mutex
	entries  map[Key]*entry
	store    *planstore.Store
	compiles atomic.Int64
	hits     atomic.Int64
	diskHits atomic.Int64
}

// NewCache returns an empty cache with no persistence.
func NewCache() *Cache { return &Cache{entries: make(map[Key]*entry)} }

// NewCacheWithStore returns a cache backed by a persistent plan store
// (nil store behaves like NewCache).
func NewCacheWithStore(store *planstore.Store) *Cache {
	return &Cache{entries: make(map[Key]*entry), store: store}
}

// Plan returns the plan for k, invoking compile at most once per key
// across all callers. hit reports whether the key was already present
// (compiled, loaded or in flight) when the call arrived.
func (c *Cache) Plan(k Key, compile func() (*core.Plan, error)) (plan *core.Plan, hit bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = &entry{}
		c.entries[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		if c.store != nil {
			if p, ok := c.store.Get(k.storeKey()); ok {
				c.diskHits.Add(1)
				e.plan = p
				return
			}
		}
		c.compiles.Add(1)
		e.plan, e.err = compile()
		if e.err == nil && c.store != nil {
			// Best-effort persistence: an encode failure would mean an
			// inconsistent plan, which the compiler cannot produce, and
			// a write failure is already counted by the store. Serving
			// proceeds from memory either way.
			_ = c.store.Put(k.storeKey(), e.plan)
		}
	})
	if ok {
		c.hits.Add(1)
	}
	return e.plan, ok, e.err
}

// Compiles returns how many compilations ran (one per distinct key).
func (c *Cache) Compiles() int64 { return c.compiles.Load() }

// Hits returns how many lookups found an existing entry.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// DiskHits returns how many singleflight slots were answered by the
// persistent store instead of the compiler.
func (c *Cache) DiskHits() int64 { return c.diskHits.Load() }

// Len returns the number of cached plans (including in-flight ones).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
