package core

import (
	"math"
	"testing"

	"telcochurn/internal/features"
	"telcochurn/internal/synth"
)

// TestIncrementalRefreshKeepsGraphSnapshot pins the stale-columns contract:
// with graph groups configured, a refreshed row recomputes its per-customer
// columns (bit-equal to the rebuild over View) while the cross-customer graph
// columns keep their snapshot values until the next full refresh.
func TestIncrementalRefreshKeepsGraphSnapshot(t *testing.T) {
	cfg := shardWorldCfg()
	src := NewShardedWarehouseSource(shardedWorld(t, cfg, 2), cfg.DaysPerMonth)
	p, err := Fit(src, []WindowSpec{MonthSpec(1, cfg.DaysPerMonth)}, Config{
		Groups: []features.Group{features.F1Baseline, features.F4CallGraph},
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	win := features.MonthWindow(2, cfg.DaysPerMonth)
	base, _, err := p.BuildFrameSharded(src, win)
	if err != nil {
		t.Fatal(err)
	}

	targets := append([]int64(nil), base.IDs()[:10]...)
	events := synth.GenerateEvents(targets, 2, cfg.DaysPerMonth, 120, 11)
	inc, err := NewIncremental(p, src, win)
	if err != nil {
		t.Fatal(err)
	}
	affected := map[int64]bool{}
	for _, name := range features.StreamableTables {
		if events[name] == nil {
			continue
		}
		ids, _, err := inc.Ingest(name, events[name])
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			affected[id] = true
		}
	}

	rebuilt, _, err := p.BuildFrameSharded(inc.View(src), win)
	if err != nil {
		t.Fatal(err)
	}

	names, groups := rebuilt.Names(), rebuilt.Groups()
	for id := range affected {
		brow, _ := base.Row(id)
		wrow, _ := rebuilt.Row(id)
		row, err := inc.Refresh(id, brow)
		if err != nil {
			t.Fatal(err)
		}
		for j := range names {
			if groups[j] == features.F4CallGraph {
				if math.Float64bits(row[j]) != math.Float64bits(brow[j]) {
					t.Fatalf("imsi %d graph col %q moved on refresh", id, names[j])
				}
			} else if math.Float64bits(row[j]) != math.Float64bits(wrow[j]) {
				t.Fatalf("imsi %d col %q: refresh %v vs rebuild %v", id, names[j], row[j], wrow[j])
			}
		}
	}
}

func TestIncrementalRejectsUnfittedPipeline(t *testing.T) {
	cfg := shardWorldCfg()
	sw := shardedWorld(t, cfg, 1)
	src := NewShardedWarehouseSource(sw, cfg.DaysPerMonth)
	win := features.MonthWindow(2, cfg.DaysPerMonth)
	if _, err := NewIncremental(NewFrameBuilder(Config{Groups: []features.Group{features.F1Baseline}}), src, win); err == nil {
		t.Fatal("unfitted pipeline accepted")
	}
}
