package core

import (
	"math"
	"testing"

	"telcochurn/internal/features"
	"telcochurn/internal/synth"
)

// TestIncrementalRefreshMatchesOverlayAndMerge is the pipeline-level
// bit-identity chain for streaming ingest: events folded through
// core.Incremental produce serving rows Float64bits-identical to a full
// rebuild over the event overlay, which in turn is bit-identical to a
// rebuild after store.EventLog.MergeInto folds the log into the
// partitions. Config has no graph groups, so every column — F9 included —
// must match exactly.
func TestIncrementalRefreshMatchesOverlayAndMerge(t *testing.T) {
	cfg := shardWorldCfg()
	wh, sw := shardedWorldIn(t, cfg, 4)
	src := NewShardedWarehouseSource(sw, cfg.DaysPerMonth)
	p, err := Fit(src, []WindowSpec{MonthSpec(1, cfg.DaysPerMonth)}, Config{
		Groups: []features.Group{
			features.F1Baseline, features.F2CS, features.F3PS,
			features.F7ComplaintTopics, features.F8SearchTopics, features.F9SecondOrder,
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	win := features.MonthWindow(2, cfg.DaysPerMonth)
	base, _, err := p.BuildFrameSharded(src, win)
	if err != nil {
		t.Fatal(err)
	}

	// Land a batch of streamed events in the durable log.
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	targets := append([]int64(nil), base.IDs()[:25]...)
	events := synth.GenerateEvents(targets, 2, cfg.DaysPerMonth, 200, 9)
	if _, err := log.Append(events); err != nil {
		t.Fatal(err)
	}

	// Incremental path: the same events through the maintainer.
	inc, err := NewIncremental(p, src, win)
	if err != nil {
		t.Fatal(err)
	}
	affected := map[int64]bool{}
	for _, name := range features.StreamableTables {
		ev := events[name]
		if ev == nil {
			continue
		}
		ids, n, err := inc.Ingest(name, ev)
		if err != nil {
			t.Fatalf("ingest %s: %v", name, err)
		}
		if n != ev.NumRows() {
			t.Fatalf("ingest %s applied %d of %d rows", name, n, ev.NumRows())
		}
		for _, id := range ids {
			affected[id] = true
		}
	}
	if len(affected) == 0 {
		t.Fatal("no customers affected")
	}

	// Control path: full rebuild over the event overlay.
	overlay, err := NewEventOverlaySource(src, log)
	if err != nil {
		t.Fatal(err)
	}
	if overlay.Seq() != log.LastSeq() {
		t.Fatalf("overlay seq %d, log at %d", overlay.Seq(), log.LastSeq())
	}
	if overlay.PendingEvents() == 0 {
		t.Fatal("overlay sees no pending events")
	}
	sharded, ok := AsSharded(overlay.Source)
	if !ok {
		t.Fatal("overlay over a sharded source not recognized as sharded")
	}
	if sharded.NumShards() != 4 {
		t.Fatalf("overlay NumShards = %d, want 4", sharded.NumShards())
	}
	rebuilt, _, err := p.BuildFrameSharded(sharded, win)
	if err != nil {
		t.Fatal(err)
	}

	names := rebuilt.Names()
	for _, id := range base.IDs() {
		row, _ := base.Row(id)
		if affected[id] {
			if row, err = inc.Refresh(id, row); err != nil {
				t.Fatalf("refresh %d: %v", id, err)
			}
		}
		wrow, ok := rebuilt.Row(id)
		if !ok {
			t.Fatalf("imsi %d missing from rebuilt frame", id)
		}
		for j := range names {
			if math.Float64bits(row[j]) != math.Float64bits(wrow[j]) {
				t.Fatalf("imsi %d (affected=%v) col %q: incremental %v vs rebuild %v",
					id, affected[id], names[j], row[j], wrow[j])
			}
		}
	}

	// Merging the log into the partitions and rebuilding from scratch must
	// reproduce the overlay's frame exactly — the overlay IS the merge
	// layout, just not yet committed.
	if _, err := log.MergeInto(); err != nil {
		t.Fatal(err)
	}
	merged, _, err := p.BuildFrameSharded(src, win)
	if err != nil {
		t.Fatal(err)
	}
	coreFramesBitIdentical(t, rebuilt, merged, "overlay vs post-merge rebuild")

	// A fresh overlay over the drained log adds nothing.
	after, err := NewEventOverlaySource(src, log)
	if err != nil {
		t.Fatal(err)
	}
	if after.PendingEvents() != 0 {
		t.Fatalf("post-merge overlay still pending %d events", after.PendingEvents())
	}
}

// TestIncrementalRefreshKeepsGraphSnapshot pins the stale-columns contract:
// with graph groups configured, a refreshed row recomputes its per-customer
// columns (bit-equal to the overlay rebuild) while the cross-customer graph
// columns keep their snapshot values until the next full refresh.
func TestIncrementalRefreshKeepsGraphSnapshot(t *testing.T) {
	cfg := shardWorldCfg()
	wh, sw := shardedWorldIn(t, cfg, 2)
	src := NewShardedWarehouseSource(sw, cfg.DaysPerMonth)
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

	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	targets := append([]int64(nil), base.IDs()[:10]...)
	events := synth.GenerateEvents(targets, 2, cfg.DaysPerMonth, 120, 11)
	if _, err := log.Append(events); err != nil {
		t.Fatal(err)
	}

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

	overlay, err := NewEventOverlaySource(src, log)
	if err != nil {
		t.Fatal(err)
	}
	sharded, _ := AsSharded(overlay.Source)
	rebuilt, _, err := p.BuildFrameSharded(sharded, win)
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
