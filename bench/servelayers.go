package main

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"telcochurn/internal/core"
	"telcochurn/internal/features"
	"telcochurn/internal/serve"
	"telcochurn/internal/store"
	"telcochurn/internal/table"
)

// serveLayers probes, in process, the calls a score request goes through
// inside churnd, over the same artifact and warehouse.
func (r *run) serveLayers(s *served) error {
	loaded, err := r.artifactLayers(s)
	if err != nil {
		return err
	}
	ov, scorer, err := servingChain(loaded, s.w)
	if err != nil {
		return err
	}
	defer scorer.Close()
	ids := s.ids
	const calls = 100_000
	vecs := loaded.Vectors()
	single := loaded.Classifier().(core.SingleScorer)
	r.set("tree.score_one_ns", r.perCallNs("tree.score_one", calls, func(i int) { single.Score(vecs.At(i % len(ids))) }))
	r.set("serve.vector_lookup_ns", r.perCallNs("serve.vector_lookup", calls, func(i int) { ov.Vector(ids[i%len(ids)]) }))
	ctx := context.Background()
	r.set("serve.score_one_ns", r.perCallNs("serve.score_one", calls, func(i int) { scorer.ScoreOne(ctx, ids[i%len(ids)]) }))
	r.set("serve.score_batch64_us", r.perCallNs("serve.score_batch64", 50, func(i int) {
		lo := i * 64 % (len(ids) - 64)
		scorer.Score(ctx, ids[lo:lo+64])
	})/1e3)
	return nil
}

// artifactLayers times loading the saved artifact, as churnd's boot does,
// and returns the loaded pipeline.
func (r *run) artifactLayers(s *served) (*core.Pipeline, error) {
	var (
		loaded *core.Pipeline
		err    error
	)
	r.set("core.artifact_load_ms", r.probe("core.artifact_load", func() { loaded, err = core.LoadFile(s.artifact) }))
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(s.artifact)
	if err != nil {
		return nil, err
	}
	r.set("core.artifact_mb", float64(info.Size())/(1<<20))
	return loaded, nil
}

// servingChain assembles churnd's provider chain — overlay over the
// precomputed vectors with the TTL-cached warehouse frame behind them — and
// a scorer on top, with churnd's defaults.
func servingChain(pipe *core.Pipeline, w *world) (*serve.Overlay, *serve.Scorer, error) {
	m := &serve.Metrics{}
	vp, err := serve.NewVectorsProvider(pipe)
	if err != nil {
		return nil, nil, err
	}
	fp, err := serve.NewFrameProvider(pipe, w.src, features.MonthWindow(scoreMon, daysPerMo))
	if err != nil {
		return nil, nil, err
	}
	chain, err := serve.NewFallbackProvider(vp, serve.NewCache(fp, 10*time.Minute, m))
	if err != nil {
		return nil, nil, err
	}
	ov := serve.NewOverlay(chain, m)
	pipe.SetWorkers(workers)
	return ov, serve.NewScorer(pipe.Classifier(), ov, serve.Config{}, m), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// appendProbe appends every batch to a fresh event log under the given
// durability policy and returns the median append time (ms) and the bytes
// the log holds per event.
func (r *run) appendProbe(name string, policy store.SyncPolicy, batches []map[string]*table.Table) (ms, bytesPerEvent float64, err error) {
	wh, err := store.Open(filepath.Join(r.dir, name))
	if err != nil {
		return 0, 0, err
	}
	wh.SetSync(policy)
	elog, err := wh.EventLog()
	if err != nil {
		return 0, 0, err
	}
	for _, b := range batches {
		r.timed(name, -1, func(int) { _, err = elog.Append(b) })
		if err != nil {
			return 0, 0, err
		}
	}
	events := len(batches) * r.sz.eventsPerPost
	return r.med(name), float64(dirBytes(elog.Dir())) / float64(events), nil
}

// ingestLayers probes, in process, what one POST /v1/events does inside
// churnd — validate, append, fold, recompute, override — and then replays
// and merges the log the stopped child left behind.
func (r *run) ingestLayers(s *served, batches []map[string]*table.Table) error {
	if len(batches) > 200 {
		batches = batches[:200]
	}
	var err error
	for _, b := range batches {
		events := wireEvents(b)
		r.timed("serve.build_event_tables", -1, func(int) { _, err = serve.BuildEventTables(events) })
		if err != nil {
			return err
		}
	}
	r.set("serve.build_event_tables_us", r.med("serve.build_event_tables")*1e3)

	ms, perEvent, err := r.appendProbe("store.eventlog_append", store.SyncPolicy{Mode: store.SyncAlways}, batches)
	if err != nil {
		return err
	}
	r.set("store.eventlog_append_ms", ms)
	r.set("store.eventlog_bytes_per_event", perEvent)
	if ms, _, err = r.appendProbe("store.eventlog_append_nosync", store.SyncPolicy{Mode: store.SyncOff}, batches); err != nil {
		return err
	}
	r.set("store.eventlog_append_nosync_ms", ms)

	win := features.MonthWindow(scoreMon, daysPerMo)
	loaded, err := r.artifactLayers(s)
	if err != nil {
		return err
	}
	inc, err := core.NewIncremental(loaded, s.w.src, win)
	if err != nil {
		return err
	}
	ov, scorer, err := servingChain(loaded, s.w)
	if err != nil {
		return err
	}
	defer scorer.Close()
	for _, b := range batches {
		var affected []int64
		r.timed("core.incremental_ingest", -1, func(int) {
			for _, name := range sortedKeys(b) {
				var ids []int64
				if ids, _, err = inc.Ingest(name, b[name]); err != nil {
					return
				}
				affected = append(affected, ids...)
			}
		})
		if err != nil {
			return err
		}
		for _, id := range affected {
			base, ok := ov.Base(id)
			if !ok {
				continue
			}
			var row []float64
			r.timed("core.incremental_refresh", -1, func(int) { row, err = inc.Refresh(id, base) })
			if err != nil {
				return err
			}
			r.timed("features.customer_frame", -1, func(int) {
				_, err = inc.Maintainer().CustomerFrame(id, []features.Group{features.F1Baseline, features.F2CS, features.F3PS}, nil, nil)
			})
			if err != nil {
				return err
			}
			r.timed("serve.overlay_override", -1, func(int) { ov.Override(id, row) })
		}
	}
	r.set("core.incremental_ingest_us", r.med("core.incremental_ingest")*1e3)
	r.set("core.incremental_refresh_us", r.med("core.incremental_refresh")*1e3)
	r.set("features.customer_frame_us", r.med("features.customer_frame")*1e3)
	r.set("serve.overlay_override_ns", r.med("serve.overlay_override")*1e6)
	ids := s.ids
	r.set("serve.vector_lookup_ns", r.perCallNs("serve.vector_lookup", 100_000, func(i int) { ov.Vector(ids[i%len(ids)]) }))

	elog, err := s.w.wh.EventLog()
	if err != nil {
		return err
	}
	r.set("store.eventlog_replay_ms", r.probe("store.eventlog_replay", func() {
		err = elog.Replay(0, func(uint64, string, *table.Table) error { return nil })
	}))
	if err != nil {
		return err
	}
	r.set("store.eventlog_merge_ms", r.timed("store.eventlog_merge", -1, func(int) { _, err = elog.MergeInto() }))
	return err
}
