package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestOverlayOverrideAndInvalidate: overrides win lookups, Base bypasses
// them, and the stale_vectors gauge counts them. Only a Swap retires them
// (TestOverlaySwap).
func TestOverlayOverrideAndInvalidate(t *testing.T) {
	inner := newMapProvider(3) // ids 0..2, vectors {i, i*0.5}
	m := &Metrics{}
	o := NewOverlay(inner, m)

	if v, ok := o.Vector(1); !ok || v[0] != 1 {
		t.Fatalf("pre-override Vector(1) = %v %v", v, ok)
	}
	o.Override(1, []float64{42, 43})
	if v, _ := o.Vector(1); v[0] != 42 {
		t.Errorf("override ignored: %v", v)
	}
	if v, _ := o.Base(1); v[0] != 1 {
		t.Errorf("Base must bypass overrides: %v", v)
	}
	if got := o.Info().Overridden; got != 1 {
		t.Errorf("Info().Overridden = %d, want 1", got)
	}
	if m.StaleVectors.Load() != 1 {
		t.Errorf("stale_vectors gauge = %d, want 1", m.StaleVectors.Load())
	}
	// The universe is the inner's: overrides never widen it.
	if n := len(o.IDs()); n != 3 {
		t.Errorf("IDs() = %d ids, want 3", n)
	}
}

// TestOverlaySwap pins the three swap modes: nil recompute retires every
// override; a recompute replaces or retires per customer; a recompute
// error aborts with the old state intact.
func TestOverlaySwap(t *testing.T) {
	o := NewOverlay(newMapProvider(3), &Metrics{})
	o.Override(0, []float64{100, 100})
	o.Override(2, []float64{200, 200})

	// recompute: keep 0 (doubling its new base), retire 2.
	next := newMapProvider(3)
	err := o.Swap(next, func(id int64, base []float64) ([]float64, error) {
		if id == 2 {
			return nil, nil
		}
		return []float64{base[0] * 2, base[1] * 2}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := o.Vector(0); v[0] != 0 { // base[0]=0, doubled is still 0
		t.Errorf("recomputed override = %v", v)
	}
	if v, _ := o.Vector(2); v[0] != 2 {
		t.Errorf("retired override still serving: %v", v)
	}
	if o.Overridden() != 1 {
		t.Errorf("overridden after swap = %d, want 1", o.Overridden())
	}

	// An erroring recompute aborts: provider and overrides untouched.
	bad := errors.New("boom")
	if err := o.Swap(newMapProvider(3), func(int64, []float64) ([]float64, error) { return nil, bad }); !errors.Is(err, bad) {
		t.Fatalf("swap error = %v, want boom", err)
	}
	if o.Overridden() != 1 {
		t.Errorf("aborted swap mutated overrides: %d", o.Overridden())
	}

	// nil recompute: the new base covers everything, all overrides retire.
	if err := o.Swap(newMapProvider(3), nil); err != nil {
		t.Fatal(err)
	}
	if o.Overridden() != 0 {
		t.Errorf("overridden after full swap = %d, want 0", o.Overridden())
	}
	if err := o.Swap(nil, nil); err == nil {
		t.Error("swap to nil provider accepted")
	}
}

// genProvider tags every vector with its generation: {gen, gen} for each
// id. Any observed vector with vec[0] != vec[1] is a torn mix of bases.
type genProvider struct {
	gen float64
	n   int
}

func (p *genProvider) Vector(id int64) ([]float64, bool) {
	if id < 0 || id >= int64(p.n) {
		return nil, false
	}
	return []float64{p.gen, p.gen}, true
}
func (p *genProvider) FeatureNames() []string { return []string{"a", "b"} }
func (p *genProvider) IDs() []int64 {
	ids := make([]int64, p.n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}
func (p *genProvider) Info() ProviderInfo { return ProviderInfo{Source: "gen", Rows: p.n} }

// TestOverlayInvalidateRacesSwap pins churnd's shutdown-free consistency
// contract under -race: the POST /v1/events fold (Base + Override) racing
// a /v1/refresh vector swap (Swap with recompute). Every
// vector is generation-tagged {g, g}; the recompute derives overrides from
// the *new* base, so any reader observing vec[0] != vec[1] caught an old
// base mixed with a new overlay (or vice versa) — exactly the bug the
// overlay's locking must rule out.
func TestOverlayInvalidateRacesSwap(t *testing.T) {
	const n = 32
	o := NewOverlay(&genProvider{gen: 0, n: n}, &Metrics{})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 1)
	// ingestMu mirrors churnd's: the fold's Base→Override pair and the
	// refresh swap serialize against each other; every read stays fully
	// concurrent.
	var ingestMu sync.Mutex

	// Refresher: swaps generation g in, recomputing surviving overrides
	// against the new base (as handleRefresh does when events raced the
	// rebuild).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for g := 1; g <= 300; g++ {
			ingestMu.Lock()
			err := o.Swap(&genProvider{gen: float64(g), n: n}, func(id int64, base []float64) ([]float64, error) {
				return []float64{base[0], base[1]}, nil
			})
			ingestMu.Unlock()
			if err != nil {
				select {
				case fail <- fmt.Sprintf("swap gen %d: %v", g, err):
				default:
				}
				return
			}
		}
	}()

	// Ingester: installs overrides derived from the current base (the fold
	// path: read Base, recompute, Override).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := int64(i % n)
			ingestMu.Lock()
			if base, ok := o.Base(id); ok {
				o.Override(id, []float64{base[0], base[1]})
			}
			ingestMu.Unlock()
		}
	}()

	// Readers: every observed vector must be internally consistent.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := int64((seed + i) % n)
				vec, ok := o.Vector(id)
				if !ok {
					select {
					case fail <- fmt.Sprintf("id %d fell out of the universe", id):
					default:
					}
					return
				}
				if vec[0] != vec[1] {
					select {
					case fail <- fmt.Sprintf("torn vector for %d: %v mixes generations", id, vec):
					default:
					}
					return
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	// Settled state: every id serves the final generation, overrides
	// included (they were recomputed from it).
	for id := int64(0); id < n; id++ {
		vec, ok := o.Vector(id)
		if !ok || vec[0] != 300 || vec[1] != 300 {
			t.Fatalf("settled vector for %d = %v %v, want [300 300]", id, vec, ok)
		}
	}
}

// TestOverlayConcurrentIngestWhileScoring races the write side (Override,
// Swap — churnd's ingest and refresh paths) against scoring
// readers, under -race. Scores must stay well-formed throughout: every
// vector observed is either the inner's {i, i/2} or an override {i, i},
// so sumClassifier yields 1.5i or 2i and anything else is a torn read.
func TestOverlayConcurrentIngestWhileScoring(t *testing.T) {
	const n = 64
	o := NewOverlay(newMapProvider(n), &Metrics{})
	scorer := NewScorer(&sumClassifier{}, o, Config{}, &Metrics{})
	defer scorer.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 1)

	// Writer: streams overrides, occasionally swaps the base.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4000; i++ {
			id := int64(i % n)
			switch {
			case i%97 == 0:
				o.Swap(newMapProvider(n), nil)
			default:
				o.Override(id, []float64{float64(id), float64(id)})
			}
		}
		close(stop)
	}()

	// Readers: batch scores while the writer churns.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			ids := make([]int64, 8)
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range ids {
					ids[j] = int64((seed + round + j) % n)
				}
				scores, err := scorer.Score(context.Background(), ids)
				if err != nil {
					select {
					case fail <- fmt.Sprintf("score: %v", err):
					default:
					}
					return
				}
				for j, s := range scores {
					i := float64(ids[j])
					if s != 1.5*i && s != 2*i {
						select {
						case fail <- fmt.Sprintf("torn score for %d: %v", ids[j], s):
						default:
						}
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}
