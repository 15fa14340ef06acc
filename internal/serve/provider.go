package serve

import (
	"errors"

	"telcochurn/internal/core"
	"telcochurn/internal/features"
)

// Provider is the one serving-vector interface. churnd serves an Overlay
// (live event overrides) over one Snapshot; the benchmark's layer probes
// still compose the TTL Cache and FallbackProvider over snapshots. Every
// one reports through Info, so every path reads uniformly. Returned slices
// are read-only and must not be mutated by callers.
type Provider interface {
	// Vector returns the feature vector for a customer, or false if the
	// customer is not in the provider's universe.
	Vector(id int64) ([]float64, bool)
	// FeatureNames returns the vector schema, aligned with Vector output.
	FeatureNames() []string
	// IDs returns every scorable customer, in serving order.
	IDs() []int64
	// Info describes the provider for /healthz, /readyz and /metrics.
	Info() ProviderInfo
}

// ProviderInfo is the uniform self-description every provider reports.
type ProviderInfo struct {
	// Source names where a snapshot came from: "vectors" (the artifact)
	// or "frame" (a warehouse build). A FallbackProvider joins its leaves'
	// names, primary first.
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

// Snapshot is the one immutable serving base: a row-major feature matrix
// keyed by customer id (core.FeatureVectors), read with a binary search and
// a slice view per lookup and no allocation. It comes either from the
// artifact's precomputed vectors or from a frame build over the warehouse,
// flattened the way Precompute flattens, so both serve the exact frame
// rows Pipeline.Predict scores.
type Snapshot struct {
	vecs  *core.FeatureVectors
	names []string
	info  ProviderInfo
}

// NewVectorsProvider serves the artifact's precomputed vectors; it fails
// with core.ErrNoVectors when the artifact carries none (pre-v2, or trained
// without -precompute).
func NewVectorsProvider(p *core.Pipeline) (*Snapshot, error) {
	v := p.Vectors()
	if v == nil {
		return nil, core.ErrNoVectors
	}
	info := ProviderInfo{Source: "vectors", Rows: v.NumRows()}
	return &Snapshot{vecs: v, names: p.FeatureNames(), info: info}, nil
}

// NewFrameProvider builds the window's frame with the pipeline's fitted
// feature models (no refitting — test-month semantics) and serves it.
func NewFrameProvider(p *core.Pipeline, src core.Source, win features.Window) (*Snapshot, error) {
	frame, err := p.BuildFrame(src, win, false, nil)
	if err != nil {
		return nil, err
	}
	return frameSnapshot(frame, 0), nil
}

// NewFrameProviderDegraded builds the window's frame in degraded mode:
// unavailable raw tables are imputed around instead of failing the build,
// and Info reports the degradation mask. With everything available the
// snapshot is bit-identical to NewFrameProvider's.
func NewFrameProviderDegraded(p *core.Pipeline, src core.Source, win features.Window) (*Snapshot, error) {
	frame, _, deg, err := p.BuildFrameDegraded(src, win)
	if err != nil {
		return nil, err
	}
	return frameSnapshot(frame, deg), nil
}

// frameSnapshot flattens a built frame. The matrix records no month: the
// window, not a snapshot month, names what a frame build served.
func frameSnapshot(frame *features.Frame, deg features.Degradation) *Snapshot {
	return &Snapshot{
		vecs:  core.VectorsFromFrame(frame, 0),
		names: frame.Names(),
		info:  ProviderInfo{Source: "frame", Rows: frame.NumRows(), Degradation: deg},
	}
}

// Vector implements Provider without allocating.
func (s *Snapshot) Vector(id int64) ([]float64, bool) { return s.vecs.Vector(id) }

// FeatureNames implements Provider.
func (s *Snapshot) FeatureNames() []string { return s.names }

// IDs returns every customer in the snapshot, ascending.
func (s *Snapshot) IDs() []int64 { return s.vecs.IDs() }

// Info implements Provider.
func (s *Snapshot) Info() ProviderInfo { return s.info }

// FallbackProvider resolves vectors from a primary provider and falls back
// to a secondary for customers the primary does not know. churnd composes
// none (it serves one base); the benchmark's serving-layer probe times the
// precomputed-matrix-over-frame chain it names.
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
