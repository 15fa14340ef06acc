package serve

import (
	"errors"

	"telcochurn/internal/core"
	"telcochurn/internal/features"
)

// Provider is the one serving-vector interface: every vector source — the
// precomputed artifact snapshot, the warehouse frame, the TTL cache, the
// snapshot+frame fallback chain, and the mutable event overlay — implements
// it, so the daemon composes them freely and reports them uniformly.
// Returned slices are read-only and must not be mutated by callers.
type Provider interface {
	// Vector returns the feature vector for a customer, or false if the
	// customer is not in the provider's universe.
	Vector(id int64) ([]float64, bool)
	// FeatureNames returns the vector schema, aligned with Vector output.
	FeatureNames() []string
	// IDs returns every scorable customer, in serving order.
	IDs() []int64
	// Info describes the provider chain for /healthz, /readyz and /metrics.
	Info() ProviderInfo
	// Invalidate drops any derived state held for the customer (cache
	// entries, event overrides) so the next Vector resolves fresh. A no-op
	// on immutable providers.
	Invalidate(id int64)
}

// ProviderInfo is the uniform self-description every provider reports.
type ProviderInfo struct {
	// Source names the vector path: "vectors", "frame", "vectors+frame"
	// ("frame+vectors" once a refresh has put the rebuilt frame first) —
	// leaf names joined in the order the chain asks them.
	Source string
	// Rows is the scorable-universe size.
	Rows int
	// Degradation is the served window's imputed-group mask (zero when
	// healthy or when the provider never touches the warehouse).
	Degradation features.Degradation
	// Overridden counts customers currently served from live event
	// overrides rather than the underlying snapshot (see Overlay).
	Overridden int
}

// VectorsProvider serves feature vectors straight out of a pipeline's
// precomputed matrix (core.FeatureVectors, persisted in v2 artifacts) —
// a binary search plus a slice view per lookup, zero allocations, no
// warehouse access. This is the serving-path ideal: the vectors are the
// exact strict-build frame rows from precompute time, so scores off them
// are bit-identical to the frame path over the same window.
type VectorsProvider struct {
	vecs  *core.FeatureVectors
	names []string
}

// ErrNoVectors mirrors core.ErrNoVectors for callers probing whether a
// loaded artifact can serve without a warehouse.
var ErrNoVectors = core.ErrNoVectors

// NewVectorsProvider wraps the pipeline's precomputed matrix; it fails with
// ErrNoVectors when the artifact carries none (pre-v2, or trained without
// -precompute).
func NewVectorsProvider(p *core.Pipeline) (*VectorsProvider, error) {
	v := p.Vectors()
	if v == nil {
		return nil, ErrNoVectors
	}
	return &VectorsProvider{vecs: v, names: p.FeatureNames()}, nil
}

// Vector implements Provider without allocating.
func (vp *VectorsProvider) Vector(id int64) ([]float64, bool) { return vp.vecs.Vector(id) }

// FeatureNames implements Provider.
func (vp *VectorsProvider) FeatureNames() []string { return vp.names }

// IDs returns every customer in the snapshot, ascending.
func (vp *VectorsProvider) IDs() []int64 { return vp.vecs.IDs() }

// NumRows returns the snapshot size.
func (vp *VectorsProvider) NumRows() int { return vp.vecs.NumRows() }

// Month returns the feature month the snapshot was precomputed from.
func (vp *VectorsProvider) Month() int { return vp.vecs.Month() }

// Info implements Provider.
func (vp *VectorsProvider) Info() ProviderInfo {
	return ProviderInfo{Source: "vectors", Rows: vp.vecs.NumRows()}
}

// Invalidate implements Provider; the snapshot is immutable, so there is
// nothing to drop.
func (vp *VectorsProvider) Invalidate(int64) {}

// FallbackProvider resolves vectors from a primary provider and falls back
// to a secondary for customers the primary does not know. churnd boots with
// the precomputed matrix first and the frame behind it (customers who
// joined after the artifact was trained, or a degraded-mode frame widened
// beyond the snapshot); after /v1/refresh the rebuilt frame is primary and
// the matrix answers only for ids the frame lacks.
type FallbackProvider struct {
	primary   Provider
	secondary Provider
	ids       []int64
}

// NewFallbackProvider chains two providers. Their schemas must agree; the
// caller is expected to have checked (churnd compares checksums at load).
func NewFallbackProvider(primary, secondary Provider) (*FallbackProvider, error) {
	if primary == nil || secondary == nil {
		return nil, errors.New("serve: fallback provider needs both providers")
	}
	// The scorable universe is the union: secondary first in its order,
	// then primary-only ids.
	ids := append([]int64(nil), secondary.IDs()...)
	seen := make(map[int64]struct{}, len(ids))
	for _, id := range ids {
		seen[id] = struct{}{}
	}
	for _, id := range primary.IDs() {
		if _, ok := seen[id]; !ok {
			ids = append(ids, id)
		}
	}
	return &FallbackProvider{primary: primary, secondary: secondary, ids: ids}, nil
}

// Vector implements Provider: primary first, then secondary.
func (f *FallbackProvider) Vector(id int64) ([]float64, bool) {
	if vec, ok := f.primary.Vector(id); ok {
		return vec, true
	}
	return f.secondary.Vector(id)
}

// FeatureNames implements Provider.
func (f *FallbackProvider) FeatureNames() []string { return f.primary.FeatureNames() }

// IDs implements Provider.
func (f *FallbackProvider) IDs() []int64 { return f.ids }

// Info implements Provider, joining the leaf sources.
func (f *FallbackProvider) Info() ProviderInfo {
	pi, si := f.primary.Info(), f.secondary.Info()
	return ProviderInfo{
		Source:      pi.Source + "+" + si.Source,
		Rows:        len(f.ids),
		Degradation: pi.Degradation | si.Degradation,
		Overridden:  pi.Overridden + si.Overridden,
	}
}

// Invalidate implements Provider, propagating to both branches.
func (f *FallbackProvider) Invalidate(id int64) {
	f.primary.Invalidate(id)
	f.secondary.Invalidate(id)
}
