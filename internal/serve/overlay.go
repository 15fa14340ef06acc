package serve

import (
	"errors"
	"sync"
)

// Overlay is the mutable top of the serving path: a per-customer override
// map on an immutable inner provider. Streamed events refresh one
// customer's vector by installing an override (Override); a full refresh
// rebuilds the inner provider off-line and swaps it in atomically (Swap),
// recomputing or retiring the overrides against the new base. The scorer
// holds the Overlay for the engine's lifetime, so neither path disturbs
// in-flight scoring — lookups take a read lock, mutations a write lock.
type Overlay struct {
	metrics *Metrics

	mu    sync.RWMutex
	inner Provider
	over  map[int64][]float64
}

// NewOverlay wraps inner; metrics may be nil (the stale_vectors gauge is
// skipped).
func NewOverlay(inner Provider, m *Metrics) *Overlay {
	return &Overlay{metrics: m, inner: inner, over: map[int64][]float64{}}
}

// Vector implements Provider: the customer's live override when one is
// installed, the inner provider otherwise.
func (o *Overlay) Vector(id int64) ([]float64, bool) {
	o.mu.RLock()
	if vec, ok := o.over[id]; ok {
		o.mu.RUnlock()
		return vec, true
	}
	inner := o.inner
	o.mu.RUnlock()
	return inner.Vector(id)
}

// Base resolves the customer's vector from the inner provider only,
// bypassing overrides — the snapshot row incremental refresh starts from.
func (o *Overlay) Base(id int64) ([]float64, bool) {
	o.mu.RLock()
	inner := o.inner
	o.mu.RUnlock()
	return inner.Vector(id)
}

// FeatureNames implements Provider.
func (o *Overlay) FeatureNames() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.inner.FeatureNames()
}

// IDs implements Provider. Overrides never widen the universe (events for
// unknown customers maintain nothing), so the inner universe stands.
func (o *Overlay) IDs() []int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.inner.IDs()
}

// Info implements Provider: the inner provider's info plus the live
// override count.
func (o *Overlay) Info() ProviderInfo {
	o.mu.RLock()
	defer o.mu.RUnlock()
	info := o.inner.Info()
	info.Overridden += len(o.over)
	return info
}

// Override installs (or replaces) one customer's serving vector. The slice
// is retained; the caller must not mutate it afterwards.
func (o *Overlay) Override(id int64, vec []float64) {
	o.mu.Lock()
	o.over[id] = vec
	o.gauge()
	o.mu.Unlock()
}

// Overridden returns the number of live overrides.
func (o *Overlay) Overridden() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.over)
}

// Swap atomically replaces the inner provider with a freshly built one.
// When recompute is nil every override is retired — the new base fully
// covers the events that produced them. Otherwise each overridden customer
// is re-derived against the new base (events kept arriving while the new
// base was building): recompute returns the replacement vector, or nil to
// retire the override; an error aborts the swap with the old provider and
// overrides untouched. Lookups block only for the recompute loop, which is
// O(overridden), not O(universe).
func (o *Overlay) Swap(inner Provider, recompute func(id int64, base []float64) ([]float64, error)) error {
	if inner == nil {
		return errors.New("serve: overlay swap needs a provider")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	next := map[int64][]float64{}
	if recompute != nil {
		for id := range o.over {
			base, ok := inner.Vector(id)
			if !ok {
				continue // fell out of the rebuilt universe
			}
			vec, err := recompute(id, base)
			if err != nil {
				return err
			}
			if vec != nil {
				next[id] = vec
			}
		}
	}
	o.inner = inner
	o.over = next
	o.gauge()
	return nil
}

// gauge publishes the override count; callers hold o.mu.
func (o *Overlay) gauge() {
	if o.metrics != nil {
		o.metrics.StaleVectors.Store(uint64(len(o.over)))
	}
}
