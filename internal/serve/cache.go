package serve

import (
	"sync"
	"time"
)

// Cache is an in-memory per-customer feature-vector cache with TTL,
// fronting a Provider. Entries expire CacheTTL after they were fetched, so
// a provider refreshed behind the cache (e.g. a new warehouse window) is
// picked up within one TTL. Negative lookups are not cached.
type Cache struct {
	base    Provider
	ttl     time.Duration
	now     func() time.Time // test hook; time.Now in production
	metrics *Metrics

	mu      sync.Mutex
	entries map[int64]cacheEntry
	sweepAt int // purge expired entries when the map grows past this
}

type cacheEntry struct {
	vec     []float64
	expires time.Time
}

// NewCache wraps base with a TTL cache. A nil metrics is allowed (counters
// are skipped); ttl <= 0 disables caching entirely and passes through.
func NewCache(base Provider, ttl time.Duration, m *Metrics) *Cache {
	return &Cache{
		base:    base,
		ttl:     ttl,
		now:     time.Now,
		metrics: m,
		entries: make(map[int64]cacheEntry),
		sweepAt: 1024,
	}
}

// Vector implements Provider, serving from cache when fresh.
func (c *Cache) Vector(id int64) ([]float64, bool) {
	if c.ttl <= 0 {
		return c.base.Vector(id)
	}
	now := c.now()
	c.mu.Lock()
	if e, ok := c.entries[id]; ok && now.Before(e.expires) {
		c.mu.Unlock()
		if c.metrics != nil {
			c.metrics.CacheHits.Add(1)
		}
		return e.vec, true
	}
	c.mu.Unlock()
	if c.metrics != nil {
		c.metrics.CacheMisses.Add(1)
	}
	vec, ok := c.base.Vector(id)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	c.entries[id] = cacheEntry{vec: vec, expires: now.Add(c.ttl)}
	if len(c.entries) >= c.sweepAt {
		for k, e := range c.entries {
			if !now.Before(e.expires) {
				delete(c.entries, k)
			}
		}
		c.sweepAt = 2*len(c.entries) + 1024
	}
	c.mu.Unlock()
	return vec, true
}

// FeatureNames implements Provider.
func (c *Cache) FeatureNames() []string { return c.base.FeatureNames() }

// IDs implements Provider.
func (c *Cache) IDs() []int64 { return c.base.IDs() }

// Info implements Provider, passing the base through — the cache changes
// latency, not the universe.
func (c *Cache) Info() ProviderInfo { return c.base.Info() }

// Len returns the number of cached entries (fresh or expired-but-unswept).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every cached entry.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[int64]cacheEntry)
}
