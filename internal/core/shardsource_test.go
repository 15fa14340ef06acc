package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
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
	return sw
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

func TestBuildFrameShardedBaseMatchesInMemoryBuild(t *testing.T) {
	cfg := shardWorldCfg()
	pcfg := Config{Groups: []features.Group{features.F1Baseline, features.F2CS, features.F3PS}}
	win := features.MonthWindow(2, cfg.DaysPerMonth)

	sw := shardedWorld(t, cfg, 4)
	src := NewShardedWarehouseSource(sw, cfg.DaysPerMonth)
	sharded, _, err := NewFrameBuilder(pcfg).BuildFrameSharded(src, win)
	if err != nil {
		t.Fatal(err)
	}
	// The whole-month path over the same (sharded) warehouse reads every
	// shard concatenated; per-customer aggregates must come out bit-equal.
	legacy, err := NewFrameBuilder(pcfg).BuildFrame(src, win, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	coreFramesBitIdentical(t, legacy, sharded, "sharded vs whole-month build")
}

func TestPredictShardedMatchesPredict(t *testing.T) {
	cfg := shardWorldCfg()
	sw := shardedWorld(t, cfg, 4)
	src := NewShardedWarehouseSource(sw, cfg.DaysPerMonth)
	p, err := Fit(src, []WindowSpec{MonthSpec(1, cfg.DaysPerMonth)}, Config{
		Groups: features.AllGroups(),
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	win := features.MonthWindow(2, cfg.DaysPerMonth)
	want, err := p.Predict(src, win)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := p.PredictSharded(src, win)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 4 {
		t.Fatalf("stats.Shards = %d, want 4", stats.Shards)
	}
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("scored %d customers, want %d", len(got.Scores), len(want.Scores))
	}
	for i := range want.Scores {
		if got.IDs[i] != want.IDs[i] || math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("row %d: (%d, %v) vs (%d, %v)", i, got.IDs[i], got.Scores[i], want.IDs[i], want.Scores[i])
		}
	}
}

// TestFrameIdenticalAcrossBuildPathsAndLandings is the determinism contract
// in one table: one world landed four ways, built whole-window on every
// landing and shard by shard on the warehouse ones, at two worker counts —
// every F1-F9 cell of every customer has the same bits.
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
	for _, shards := range []int{1, 4, 16} {
		src := NewShardedWarehouseSource(shardedWorld(t, cfg, shards), days)
		landings = append(landings, landing{fmt.Sprintf("warehouse%d", shards), src})
	}
	win := features.MonthWindow(2, days)
	var ref *features.Frame
	for _, l := range landings {
		for _, workers := range []int{1, 8} {
			p.SetWorkers(workers)
			context := fmt.Sprintf("%s workers=%d", l.name, workers)
			whole, err := p.BuildFrame(l.src, win, false, nil)
			if err != nil {
				t.Fatalf("%s: %v", context, err)
			}
			if ref == nil {
				ref = whole
			}
			coreFramesBitIdentical(t, ref, whole, context+" whole-window")
			if ss, ok := AsSharded(l.src); ok {
				sharded, _, err := p.BuildFrameSharded(ss, win)
				if err != nil {
					t.Fatalf("%s: %v", context, err)
				}
				coreFramesBitIdentical(t, ref, sharded, context+" sharded")
			}
		}
	}
	if n := len(ref.Groups()); n == 0 || ref.Groups()[n-1] != features.F9SecondOrder {
		t.Fatalf("frame does not reach F9: %d columns", n)
	}
}

// TestShardReadsRetry: a RetrySource over a sharded source is itself
// sharded, and every per-shard table read retries under the usual policy.
func TestShardReadsRetry(t *testing.T) {
	cfg := shardWorldCfg()
	sw := shardedWorld(t, cfg, 4)
	src := NewShardedWarehouseSource(sw, cfg.DaysPerMonth)

	if _, ok := AsSharded(NewWarehouseSource(sw.Warehouse(), cfg.DaysPerMonth)); ok {
		t.Fatal("plain warehouse source claims to be sharded")
	}

	// Fail the first few reads transiently: the retry-wrapped sharded source
	// must heal and produce the same frame.
	var mu sync.Mutex
	failures := 3
	transient := errors.New("transient feed outage")
	sw.Warehouse().SetHook(func(op store.Op, name string, month int) error {
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
	defer sw.Warehouse().SetHook(nil)

	rs := NewRetrySource(src, RetryConfig{
		MaxAttempts: 5,
		Sleep:       func(time.Duration) {},
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
	if rs.Retries() == 0 {
		t.Fatal("no retries recorded despite injected failures")
	}

	sw.Warehouse().SetHook(nil)
	clean, _, err := NewFrameBuilder(pcfg).BuildFrameSharded(src, win)
	if err != nil {
		t.Fatal(err)
	}
	coreFramesBitIdentical(t, clean, frame, "retried vs clean sharded build")
}

func TestBuildFrameShardedUnfittedRejectsTopicGroups(t *testing.T) {
	cfg := shardWorldCfg()
	sw := shardedWorld(t, cfg, 2)
	src := NewShardedWarehouseSource(sw, cfg.DaysPerMonth)
	win := features.MonthWindow(2, cfg.DaysPerMonth)
	for _, g := range []features.Group{features.F7ComplaintTopics, features.F8SearchTopics, features.F9SecondOrder} {
		p := NewFrameBuilder(Config{Groups: []features.Group{features.F1Baseline, g}})
		if _, _, err := p.BuildFrameSharded(src, win); err == nil {
			t.Fatalf("unfitted sharded build of %s accepted", g)
		}
	}
}
