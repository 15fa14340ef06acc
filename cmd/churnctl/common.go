package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"telcochurn/internal/core"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
)

// sourceFlags are the warehouse-access knobs shared by every subcommand
// that opens a warehouse (inspect, build, train, score, ingest): the
// resilience and parallelism flags spell and behave the same everywhere,
// and match churnd's serving flags.
type sourceFlags struct {
	dir      *string
	workers  *int
	shards   *int
	retries  *int
	degraded *bool
	fsync    *string
}

// addSourceFlags registers the shared warehouse flags on fs.
func addSourceFlags(fs *flag.FlagSet) *sourceFlags {
	return &sourceFlags{
		dir:      fs.String("warehouse", "./warehouse", "warehouse directory"),
		workers:  fs.Int("workers", 0, "parallelism for feature builds (0 = all cores)"),
		shards:   fs.Int("shards", 0, "shard count for sharded reads (0 = detect from layout)"),
		retries:  fs.Int("retries", 0, "read attempts per source operation (0 = default 4, 1 = no retries)"),
		degraded: fs.Bool("degraded", false, "tolerate unavailable raw tables where the subcommand supports imputation"),
		fsync:    fs.String("fsync", "always", "write durability: always, off, or a flush interval like 500ms"),
	}
}

// open opens the existing warehouse directory under the -fsync durability
// policy. A missing path is an error naming it: store.Open would create an
// empty warehouse there instead.
func (f *sourceFlags) open() (*store.Warehouse, error) {
	policy, err := store.ParseSyncPolicy(*f.fsync)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(*f.dir); err != nil {
		return nil, fmt.Errorf("open warehouse: %w", err)
	}
	wh, err := store.Open(*f.dir)
	if err != nil {
		return nil, err
	}
	wh.SetSync(policy)
	return wh, nil
}

// detectShards resolves the effective shard count: the -shards override,
// or the customers table's on-disk layout.
func (f *sourceFlags) detectShards(wh *store.Warehouse) (int, error) {
	if *f.shards != 0 {
		return *f.shards, nil
	}
	return wh.DetectShards(synth.TableCustomers)
}

// source opens the warehouse as the pipeline source every subcommand
// reads through: a sharded warehouse view at the layout's (or -shards')
// count (1 for a plain layout) with each table read retried under seeded
// backoff per -retries, so build and score take the bounded-memory
// shard-at-a-time path. Whole-window and sharded builds over it give the
// same frame bit for bit, whatever the layout or shard count.
func (f *sourceFlags) source(label string) (core.Source, *store.Warehouse, int, error) {
	wh, err := f.open()
	if err != nil {
		return core.Source{}, nil, 0, err
	}
	days := synth.DefaultConfig().DaysPerMonth
	shards, err := f.detectShards(wh)
	if err != nil {
		return core.Source{}, nil, 0, err
	}
	if shards < 1 {
		shards = 1
	}
	sw, err := wh.Sharded(shards)
	if err != nil {
		return core.Source{}, nil, 0, err
	}
	rs := core.NewRetrySource(core.NewShardedWarehouseSource(sw, days), core.RetryConfig{
		MaxAttempts: *f.retries,
		OnRetry: func(op string, attempt int, delay time.Duration, err error) {
			fmt.Fprintf(os.Stderr, "%s: retrying %s (attempt %d, backoff %v): %v\n", label, op, attempt, delay, err)
		},
	})
	return rs.Source, wh, days, nil
}
