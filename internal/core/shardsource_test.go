package core

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
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
