package main

import (
	"fmt"
	"os"
	"path/filepath"

	"telcochurn/internal/core"
	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/tree"
)

const (
	workers   = 2 // core.Config.Workers and GOMAXPROCS of harness and child
	months    = 4 // simulated months: train on 2 (labels from 3), score 4
	fitMonth  = 2
	scoreMon  = 4
	daysPerMo = 30
)

// sizing fixes how much work a workload does. Counts, not repetitions, are
// what to resize when a measured phase runs too long or too short.
type sizing struct {
	customers int
	shards    int // 1 = plain warehouse
	trees     int
	groups    []features.Group
	calibN    int // size of the calibration kernel; smaller only in smoke tests
	setups    int // set-up repetitions behind setup_s
	minReps   int // floor on repetitions behind a batch median
	// Serve workloads: closed-loop score connections, segment counts of
	// phase A and B (serve_read); reader connections beside the writer,
	// event posts per second of --seconds, posts per calibrated chunk,
	// events per post, floor on refreshes (serve_ingest).
	conns         int
	readers       int
	segsA, segsB  int
	postsPerSec   float64
	chunk         int
	eventsPerPost int
	minRefreshes  int
}

var defaultGroups = []features.Group{
	features.F1Baseline, features.F2CS, features.F3PS,
	features.F4CallGraph, features.F5MessageGraph, features.F6CooccurrenceGraph,
}

// sizeFor returns the committed sizing of a workload: the numbers every
// result in README.md and every later comparison was measured at.
func sizeFor(workload string) sizing {
	sz := sizing{customers: 1500, shards: 1, trees: 30, calibN: calibN, setups: 3, minReps: 12}
	switch workload {
	case "batch_train":
		sz.groups = features.AllGroups()
	case "batch_sharded":
		sz.customers, sz.shards, sz.groups = 2000, 8, defaultGroups
	default: // serve_read, serve_ingest
		sz.trees, sz.groups = 100, defaultGroups
		sz.conns, sz.readers, sz.segsA, sz.segsB = 8, 3, 32, 16
		sz.postsPerSec, sz.chunk, sz.eventsPerPost, sz.minRefreshes = 40, 50, 8, 5
	}
	return sz
}

func (r *run) synthConfig() synth.Config {
	cfg := synth.DefaultConfig()
	cfg.Customers = r.sz.customers
	cfg.Months = months
	cfg.Seed = r.seed
	cfg.BurnInMonths = 1
	return cfg
}

func (r *run) coreConfig() core.Config {
	return core.Config{
		Groups:  r.sz.groups,
		Forest:  tree.ForestConfig{NumTrees: r.sz.trees, MinLeafSamples: 25, Seed: r.seed + 11, Workers: workers},
		Seed:    r.seed,
		Workers: workers,
	}
}

// world is one generated warehouse, opened the way the workload reads it.
type world struct {
	dir string
	wh  *store.Warehouse
	sw  *store.ShardedWarehouse // nil for the plain layout
	src core.Source             // *core.ShardedWarehouseSource when sharded
}

// generate simulates the world into dir. Synthetic data is rebuildable, so
// it is written without fsync; the durable paths are churnd's.
func (r *run) generate(dir string, parent int) (*world, error) {
	wh, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	wh.SetSync(store.SyncPolicy{Mode: store.SyncOff})
	w := &world{dir: dir, wh: wh}
	r.timed("synth.generate", parent, func(int) {
		if r.sz.shards > 1 {
			if w.sw, err = wh.Sharded(r.sz.shards); err == nil {
				err = synth.GenerateToShardedWarehouse(r.synthConfig(), w.sw)
			}
			return
		}
		err = synth.GenerateToWarehouse(r.synthConfig(), wh)
	})
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	if w.sw != nil {
		w.src = core.NewShardedWarehouseSource(w.sw, daysPerMo)
	} else {
		w.src = core.NewWarehouseSource(wh, daysPerMo)
	}
	return w, nil
}

// setUp builds the workload's starting state r.sz.setups times, each in its
// own directory, keeps the last and discards the others, and reports the
// median host-normalised wall time as setup_s: one set-up is a single shot,
// and a single shot on a shared host does not repeat.
func setUp[T any](r *run, build func(dir string, span int) (T, error), discard func(T)) (T, error) {
	var kept T
	r.calib()
	for i := 0; i < r.sz.setups; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("setup-%d", i))
		if i > 0 {
			discard(kept)
			os.RemoveAll(filepath.Join(r.dir, fmt.Sprintf("setup-%d", i-1)))
		}
		var err error
		ms := r.timed("setup", -1, func(id int) { kept, err = build(dir, id) })
		if err != nil {
			return kept, fmt.Errorf("set-up %d: %w", i, err)
		}
		r.record("setup.norm", ms*r.hostFactor())
	}
	r.set("setup_s", r.med("setup.norm")/1e3)
	r.set("synth.generate_s", r.med("synth.generate")/1e3)
	return kept, nil
}
