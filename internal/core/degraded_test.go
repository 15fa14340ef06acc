package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/tree"
)

// diskWorld writes a small simulated world into a fresh warehouse.
func diskWorld(t *testing.T) (*store.Warehouse, synth.Config) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Customers = 400
	cfg.Months = 4
	cfg.Seed = 5
	wh, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.GenerateToWarehouse(cfg, wh); err != nil {
		t.Fatal(err)
	}
	return wh, cfg
}

// dropTables makes the named tables unavailable by removing their
// partition directories.
func dropTables(t *testing.T, wh *store.Warehouse, names ...string) {
	t.Helper()
	for _, name := range names {
		if err := os.RemoveAll(filepath.Join(wh.Root(), name)); err != nil {
			t.Fatal(err)
		}
	}
}

// without serves src with every read of one table failing — that feed
// being down while the others are healthy.
func without(src Source, name string) Source {
	return src.With(func(_, _ int, r features.TableReader) features.TableReader {
		return &countingReader{inner: r, failLeft: map[string]int{name: 1 << 30}}
	})
}

func samePredictions(t *testing.T, a, b *Predictions) {
	t.Helper()
	if len(a.IDs) != len(b.IDs) {
		t.Fatalf("id counts differ: %d vs %d", len(a.IDs), len(b.IDs))
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			t.Fatalf("row %d: id %d vs %d", i, a.IDs[i], b.IDs[i])
		}
		if math.Float64bits(a.Scores[i]) != math.Float64bits(b.Scores[i]) {
			t.Fatalf("row %d (id %d): score %v vs %v — degraded path not bit-identical",
				i, a.IDs[i], a.Scores[i], b.Scores[i])
		}
	}
}

// TestPredictDegraded drives one fitted all-groups pipeline through the
// degradation ladder: healthy (bit-identical to strict), truth feed down,
// OSS/text tables gone, everything-but-customers gone (the F1-only floor),
// and finally the customer universe gone (fatal).
func TestPredictDegraded(t *testing.T) {
	wh, cfg := diskWorld(t)
	days := cfg.DaysPerMonth
	src := NewWarehouseSource(wh, days)
	p, err := Fit(src, []WindowSpec{MonthSpec(2, days)}, Config{
		Groups: features.AllGroups(),
		Forest: tree.ForestConfig{NumTrees: 15, MinLeafSamples: 15, Seed: 3},
		Seed:   3,
	})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	win := features.MonthWindow(3, days)

	strict, err := p.Predict(src, win)
	if err != nil {
		t.Fatalf("strict Predict: %v", err)
	}

	t.Run("healthy run is bit-identical to strict", func(t *testing.T) {
		got, _, err := p.PredictDegraded(src, win)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Degraded.Empty() {
			t.Errorf("healthy degraded mask = %s, want none", got.Degraded)
		}
		samePredictions(t, strict, got)
	})

	t.Run("truth feed down degrades graph groups", func(t *testing.T) {
		down := without(src, synth.TableTruth)
		if _, err := p.Predict(down, win); err == nil {
			t.Error("strict Predict survived a dead truth feed")
		}
		got, _, err := p.PredictDegraded(down, win)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []features.Group{features.F4CallGraph, features.F5MessageGraph, features.F6CooccurrenceGraph, features.F9SecondOrder} {
			if !got.Degraded.Has(g) {
				t.Errorf("mask %s missing %v", got.Degraded, g)
			}
		}
		if got.Degraded.Has(features.F1Baseline) {
			t.Errorf("mask %s flags F1 with all tables present", got.Degraded)
		}
		if len(got.IDs) != len(strict.IDs) {
			t.Errorf("scored %d customers, want %d", len(got.IDs), len(strict.IDs))
		}
	})

	t.Run("missing OSS and text tables", func(t *testing.T) {
		dropTables(t, wh, synth.TableWeb, synth.TableSearch, synth.TableLocations,
			synth.TableComplaints, synth.TableMessages)
		if _, err := p.Predict(src, win); err == nil {
			t.Error("strict Predict survived missing tables")
		}
		got, _, err := p.PredictDegraded(src, win)
		if err != nil {
			t.Fatal(err)
		}
		want := "F1,F3,F5,F6,F7,F8,F9"
		if got.Degraded.String() != want {
			t.Errorf("mask = %s, want %s", got.Degraded, want)
		}
		if len(got.IDs) != len(strict.IDs) {
			t.Errorf("scored %d customers, want %d", len(got.IDs), len(strict.IDs))
		}
	})

	t.Run("F1-only floor: every feed but customers gone", func(t *testing.T) {
		dropTables(t, wh, synth.TableCalls, synth.TableRecharges, synth.TableBilling)
		got, _, err := p.PredictDegraded(src, win)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range features.AllGroups() {
			if !got.Degraded.Has(g) {
				t.Errorf("mask %s missing %v with every feed down", got.Degraded, g)
			}
		}
		if len(got.IDs) != len(strict.IDs) {
			t.Errorf("scored %d customers, want %d", len(got.IDs), len(strict.IDs))
		}
		for _, s := range got.Scores {
			if math.IsNaN(s) || s < 0 || s > 1 {
				t.Fatalf("floor score out of range: %v", s)
			}
		}
	})

	t.Run("customer universe gone is fatal", func(t *testing.T) {
		dropTables(t, wh, synth.TableCustomers)
		_, _, err := p.PredictDegraded(src, win)
		if !errors.Is(err, features.ErrUniverseUnavailable) {
			t.Fatalf("err = %v, want ErrUniverseUnavailable", err)
		}
	})
}
