package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/tree"
)

func shardWorldCfg() synth.Config {
	cfg := synth.DefaultConfig()
	cfg.Customers = 300
	cfg.Months = 3
	cfg.Seed = 21
	cfg.BurnInMonths = 1
	return cfg
}

// shardedWorld generates the same world into a warehouse landed at the
// given shard count (1 = plain layout).
func shardedWorld(t *testing.T, cfg synth.Config, shards int) *store.ShardedWarehouse {
	t.Helper()
	_, sw := shardedWorldIn(t, cfg, shards)
	return sw
}

// shardedWorldIn is shardedWorld that also hands back the warehouse under
// the view, for tests that hook its I/O or open its event log.
func shardedWorldIn(t *testing.T, cfg synth.Config, shards int) (*store.Warehouse, *store.ShardedWarehouse) {
	t.Helper()
	wh, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := wh.Sharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.GenerateToShardedWarehouse(cfg, sw); err != nil {
		t.Fatal(err)
	}
	return wh, sw
}

func coreFramesBitIdentical(t *testing.T, a, b *features.Frame, context string) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumColumns() != b.NumColumns() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", context, a.NumRows(), a.NumColumns(), b.NumRows(), b.NumColumns())
	}
	an, bn := a.Names(), b.Names()
	for j := range an {
		if an[j] != bn[j] {
			t.Fatalf("%s: column %d named %q vs %q", context, j, an[j], bn[j])
		}
	}
	for i, id := range a.IDs() {
		if b.IDs()[i] != id {
			t.Fatalf("%s: row %d id %d vs %d", context, i, id, b.IDs()[i])
		}
		ra, _ := a.Row(id)
		rb, _ := b.Row(id)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				t.Fatalf("%s: id %d col %q: %v vs %v (not bit-identical)", context, id, an[j], ra[j], rb[j])
			}
		}
	}
}

func TestBuildFrameShardedInvariantAcrossLayoutsAndWorkers(t *testing.T) {
	cfg := shardWorldCfg()
	pcfg := Config{Groups: []features.Group{
		features.F1Baseline, features.F2CS, features.F3PS,
		features.F4CallGraph, features.F5MessageGraph, features.F6CooccurrenceGraph,
	}}
	win := features.MonthWindow(2, cfg.DaysPerMonth)
	var ref *features.Frame
	for _, shards := range []int{1, 4, 16} {
		sw := shardedWorld(t, cfg, shards)
		src := NewShardedWarehouseSource(sw, cfg.DaysPerMonth)
		for _, workers := range []int{1, 8} {
			c := pcfg
			c.Workers = workers
			frame, stats, err := NewFrameBuilder(c).BuildFrameSharded(src, win)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if stats.Shards != shards || stats.RawRows == 0 {
				t.Fatalf("shards=%d: stats = %+v", shards, stats)
			}
			if ref == nil {
				ref = frame
				continue
			}
			coreFramesBitIdentical(t, ref, frame, "layout/worker variation")
		}
	}
}

// TestFrameIdenticalAcrossBuildPathsAndLandings is the determinism contract
// in one table: one world landed four ways, built whole-window on every
// landing and shard by shard on the warehouse ones, at two worker counts,
// strict and degraded — every F1-F9 cell of every customer has the same
// bits, a degraded build with nothing down is the strict build, and with a
// feed down the imputed frame and its mask do not depend on the path
// either. Scores and the streaming refresh are rows of the same table.
func TestFrameIdenticalAcrossBuildPathsAndLandings(t *testing.T) {
	cfg := shardWorldCfg()
	days := cfg.DaysPerMonth
	memory := NewMemorySource(synth.Simulate(cfg), days)
	p, err := Fit(memory, []WindowSpec{MonthSpec(1, days)}, Config{
		Groups: features.AllGroups(),
		Forest: tree.ForestConfig{NumTrees: 2},
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	type landing struct {
		name string
		src  Source
	}
	landings := []landing{{"memory", memory}}
	worlds := map[int]*store.ShardedWarehouse{}
	whs := map[int]*store.Warehouse{}
	for _, shards := range []int{1, 4, 16} {
		whs[shards], worlds[shards] = shardedWorldIn(t, cfg, shards)
		src := NewShardedWarehouseSource(worlds[shards], days)
		landings = append(landings, landing{fmt.Sprintf("warehouse%d", shards), src})
	}
	modes := []struct {
		name    string
		down    string // table made unreadable, "" = none
		partial bool
		mask    string
		ref     int // mode whose first frame is the reference
	}{
		{"strict", "", false, "none", 0},
		{"degraded healthy", "", true, "none", 0},
		{"degraded web down", synth.TableWeb, true, "F1,F3,F9", 2},
		{"degraded truth down", synth.TableTruth, true, "F4,F5,F6,F9", 3},
	}
	win := features.MonthWindow(2, days)
	refs := make([]*features.Frame, len(modes))
	for _, l := range landings {
		// Whole-window always, shard by shard where the landing can.
		paths := []int{0}
		if n := l.src.NumShards(); n > 0 {
			paths = append(paths, n)
		}
		for _, workers := range []int{1, 8} {
			p.SetWorkers(workers)
			for _, m := range modes {
				src := l.src
				if m.down != "" {
					src = without(src, m.down)
				}
				for _, shards := range paths {
					context := fmt.Sprintf("%s workers=%d %s shards=%d", l.name, workers, m.name, shards)
					frame, stats, deg, err := p.buildFrame(src, win, shards, false, nil, m.partial)
					if err != nil {
						t.Fatalf("%s: %v", context, err)
					}
					if deg.String() != m.mask || stats.Shards != max(shards, 1) || stats.RawRows == 0 {
						t.Fatalf("%s: mask %s (want %s), stats %+v", context, deg, m.mask, stats)
					}
					if refs[m.ref] == nil {
						refs[m.ref] = frame
					}
					coreFramesBitIdentical(t, refs[m.ref], frame, context)
				}
			}
		}
	}
	ref := refs[0]
	if n := len(ref.Groups()); n == 0 || ref.Groups()[n-1] != features.F9SecondOrder {
		t.Fatalf("frame does not reach F9: %d columns", n)
	}

	// Scores: the sharded entry points, strict and degraded, against the
	// whole-window ones on the memory landing.
	want, err := p.Predict(memory, win)
	if err != nil {
		t.Fatal(err)
	}
	wantDown, _, err := p.PredictDegraded(without(memory, synth.TableWeb), win)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{4, 16} {
		src := NewShardedWarehouseSource(worlds[shards], days)
		got, stats, err := p.PredictSharded(src, win)
		if err != nil || stats.Shards != shards {
			t.Fatalf("PredictSharded over %d shards: stats %+v, err %v", shards, stats, err)
		}
		samePredictions(t, want, got)
		got, stats, err = p.PredictDegraded(without(src, synth.TableWeb), win)
		if err != nil || stats.Shards != shards || got.Degraded != wantDown.Degraded {
			t.Fatalf("PredictDegraded over %d shards: mask %s, stats %+v, err %v", shards, got.Degraded, stats, err)
		}
		samePredictions(t, wantDown, got)
	}

	// Streaming: events refreshed into the reference frame's rows give the
	// per-customer columns of a rebuild after the log is merged into the
	// partitions (graph columns wait for that rebuild, and F9 multiplies
	// them in). Last, because the merge rewrites the landing.
	src := NewShardedWarehouseSource(worlds[4], days)
	log, err := whs[4].EventLog()
	if err != nil {
		t.Fatal(err)
	}
	events := synth.GenerateEvents(ref.IDs()[:25], 2, days, 200, 9)
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
			t.Fatalf("ingest %s: %v", name, err)
		}
		for _, id := range ids {
			affected[id] = true
		}
	}
	if len(affected) == 0 {
		t.Fatal("no customers affected")
	}
	if _, err := log.MergeInto(); err != nil {
		t.Fatal(err)
	}
	merged, _, err := p.BuildFrameSharded(src, win)
	if err != nil {
		t.Fatal(err)
	}
	names, groups := merged.Names(), merged.Groups()
	for _, id := range ref.IDs() {
		row, _ := ref.Row(id)
		if affected[id] {
			if row, err = inc.Refresh(id, row); err != nil {
				t.Fatalf("refresh %d: %v", id, err)
			}
		}
		wrow, _ := merged.Row(id)
		for j, g := range groups {
			if (features.BaseGroups | features.TopicGroups).Has(g) && math.Float64bits(row[j]) != math.Float64bits(wrow[j]) {
				t.Fatalf("imsi %d (affected=%v) col %q: refreshed %v vs merged rebuild %v", id, affected[id], names[j], row[j], wrow[j])
			}
		}
	}
}

// TestShardReadsRetry: a RetrySource over a sharded source is itself
// sharded, and every per-shard table read retries under the usual policy.
func TestShardReadsRetry(t *testing.T) {
	cfg := shardWorldCfg()
	wh, sw := shardedWorldIn(t, cfg, 4)
	src := NewShardedWarehouseSource(sw, cfg.DaysPerMonth)

	if _, ok := AsSharded(NewWarehouseSource(wh, cfg.DaysPerMonth)); ok {
		t.Fatal("plain warehouse source claims to be sharded")
	}

	// Fail the first few reads transiently: the retry-wrapped sharded source
	// must heal and produce the same frame.
	var mu sync.Mutex
	failures := 3
	transient := errors.New("transient feed outage")
	wh.SetHook(func(op store.Op, name string, month int) error {
		if op != store.OpReadPartition {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if failures > 0 {
			failures--
			return transient
		}
		return nil
	})
	defer wh.SetHook(nil)

	var retries atomic.Int64
	rs := NewRetrySource(src, RetryConfig{
		MaxAttempts: 5,
		Sleep:       func(time.Duration) {},
		OnRetry:     func(string, int, time.Duration, error) { retries.Add(1) },
	})
	sharded, ok := AsSharded(rs.Source)
	if !ok {
		t.Fatal("retrying view of a sharded source not recognized as sharded")
	}
	if sharded.NumShards() != 4 {
		t.Fatalf("NumShards through retry wrapper = %d, want 4", sharded.NumShards())
	}
	pcfg := Config{Groups: []features.Group{features.F1Baseline}}
	win := features.MonthWindow(2, cfg.DaysPerMonth)
	frame, _, err := NewFrameBuilder(pcfg).BuildFrameSharded(sharded, win)
	if err != nil {
		t.Fatal(err)
	}
	if retries.Load() == 0 {
		t.Fatal("no retries recorded despite injected failures")
	}

	wh.SetHook(nil)
	clean, _, err := NewFrameBuilder(pcfg).BuildFrameSharded(src, win)
	if err != nil {
		t.Fatal(err)
	}
	coreFramesBitIdentical(t, clean, frame, "retried vs clean sharded build")
}

// TestBuildFrameShardedUnfittedRejectsTopicGroups: no read path trains a
// feature model. Every frame-build and Predict entry point fails with
// ErrUnfitted on an unfitted F7/F8/F9 and leaves the pipeline as it was.
func TestBuildFrameShardedUnfittedRejectsTopicGroups(t *testing.T) {
	cfg := shardWorldCfg()
	sw := shardedWorld(t, cfg, 2)
	src := NewShardedWarehouseSource(sw, cfg.DaysPerMonth)
	win := features.MonthWindow(2, cfg.DaysPerMonth)
	for _, g := range []features.Group{features.F7ComplaintTopics, features.F8SearchTopics, features.F9SecondOrder} {
		p := NewFrameBuilder(Config{Groups: []features.Group{features.F1Baseline, g}})
		for name, call := range map[string]func() error{
			"BuildFrame":         func() error { _, err := p.BuildFrame(src, win, false, nil); return err },
			"BuildFrameDegraded": func() error { _, _, _, err := p.BuildFrameDegraded(src, win); return err },
			"BuildFrameSharded":  func() error { _, _, err := p.BuildFrameSharded(src, win); return err },
			"Predict":            func() error { _, err := p.Predict(src, win); return err },
			"PredictDegraded":    func() error { _, _, err := p.PredictDegraded(src, win); return err },
			"PredictSharded":     func() error { _, _, err := p.PredictSharded(src, win); return err },
		} {
			if err := call(); !errors.Is(err, ErrUnfitted) {
				t.Errorf("unfitted %s of %s: %v, want ErrUnfitted", name, g, err)
			}
		}
		if p.complaints != nil || p.search != nil || p.so != nil {
			t.Errorf("a frame build of %s stored a feature model on the pipeline", g)
		}
	}
}
