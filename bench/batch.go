package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"telcochurn/internal/core"
	"telcochurn/internal/features"
	"telcochurn/internal/procstat"
	"telcochurn/internal/table"
)

// checksum is FNV-1a over every customer id and the bit pattern of its
// score: two prediction lists agree bit for bit iff their checksums do.
func checksum(ids []int64, scores []float64) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for i, id := range ids {
		binary.LittleEndian.PutUint64(buf[:8], uint64(id))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(scores[i]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// measure times one repetition of a workload operation and takes a
// calibration shot right after it. The raw time is recorded under name,
// the time at reference host speed (hostFactor) under name+".norm". On a
// traced run every second repetition goes without a span, recorded under
// name+".untraced", so the run itself yields the tracing overhead.
func (r *run) measure(name string, i int, f func()) {
	var ms float64
	if r.tr != nil && i%2 == 1 {
		var none *tracer
		ms = float64(none.in(name, -1, func(int) { f() })) / 1e6
		r.record(name+".untraced", ms)
	} else {
		ms = r.timed(name, -1, func(int) { f() })
	}
	r.record(name+".norm", ms*r.hostFactor())
}

// sameChecksum records one output check per repetition: every repetition of
// a deterministic batch job must produce the first one's scores.
func (r *run) sameChecksum(what string, first *uint64, i int, p *core.Predictions) {
	sum := checksum(p.IDs, p.Scores)
	if i == 0 {
		*first = sum
	}
	r.op(sum == *first && len(p.IDs) > 0, "%s repetition %d: score checksum %016x, first was %016x", what, i, sum, *first)
}

// harnessPeakMB reads this process's peak RSS since the last reset.
func harnessPeakMB() float64 {
	b, _ := procstat.PeakRSSBytes()
	return float64(b) / (1 << 20)
}

// measuredBudget is the time the repetitions get: all of --seconds on the
// gated run, half on the traced run, which spends the rest on layer probes.
func (r *run) measuredBudget() float64 {
	if r.tr != nil {
		return r.seconds / 2
	}
	return r.seconds
}

// repFloor is the least number of repetitions behind a batch median; the
// traced run, whose numbers gate nothing, halves it like its budget.
func (r *run) repFloor() int {
	if r.tr != nil {
		return (r.sz.minReps + 1) / 2
	}
	return r.sz.minReps
}

// batchTrain is the monthly retrain plus whole-base scoring of the paper's
// Figure 6: main = core.Fit on one labeled month with all nine feature
// groups, side = Pipeline.Predict for the newest month.
func batchTrain(r *run) error {
	w, err := setUp(r, func(dir string, span int) (*world, error) { return r.generate(dir, span) }, func(*world) {})
	if err != nil {
		return err
	}
	specs := []core.WindowSpec{core.MonthSpec(fitMonth, daysPerMo)}
	win := features.MonthWindow(scoreMon, daysPerMo)
	resetPeakRSS()
	r.calib()
	var first uint64
	err = untilDeadline(r.measuredBudget(), r.repFloor(), func(i int) error {
		var (
			pipe  *core.Pipeline
			preds *core.Predictions
			err   error
		)
		r.measure("core.fit", i, func() { pipe, err = core.Fit(w.src, specs, r.coreConfig()) })
		if err != nil {
			return fmt.Errorf("fit: %w", err)
		}
		r.op(true, "")
		r.measure("core.predict", i, func() { preds, err = pipe.Predict(w.src, win) })
		if err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		r.sameChecksum("predict", &first, i, preds)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", harnessPeakMB())
	if r.tr == nil {
		r.set("main_ms", r.med("core.fit.norm"))
		r.set("side_ms", r.med("core.predict.norm"))
		return nil
	}
	if err := r.trainLayers(w, first); err != nil {
		return err
	}
	if err := r.writePartitionProbe(w); err != nil {
		return err
	}
	r.harnessLayers("core.fit")
	return nil
}

// harnessLayers fills the metrics every traced run reports about the
// harness and host rather than about a layer.
func (r *run) harnessLayers(mainOp string) {
	r.set("procstat.peak_rss_mb", harnessPeakMB())
	r.set("harness.calib_ms", r.med("harness.calib"))
	r.set("harness.trace_overhead_pct", r.traceOverheadPct(mainOp))
}

// batchSharded is the same scoring job through the out-of-core path: main
// = Pipeline.PredictSharded over an 8-shard warehouse (peak RSS covers
// these repetitions only), side = the whole-window Pipeline.Predict over
// the same files, which is what `churnctl score` runs on a sharded layout.
func batchSharded(r *run) error {
	type state struct {
		w    *world
		pipe *core.Pipeline
	}
	st, err := setUp(r, func(dir string, span int) (state, error) {
		w, err := r.generate(dir, span)
		if err != nil {
			return state{}, err
		}
		var pipe *core.Pipeline
		r.timed("core.fit", span, func(int) {
			pipe, err = core.Fit(w.src, []core.WindowSpec{core.MonthSpec(fitMonth, daysPerMo)}, r.coreConfig())
		})
		return state{w, pipe}, err
	}, func(state) {})
	if err != nil {
		return err
	}
	src, ok := core.AsSharded(st.w.src)
	if !ok {
		return fmt.Errorf("sizing gives %d shards; batch_sharded needs a sharded warehouse", r.sz.shards)
	}
	win := features.MonthWindow(scoreMon, daysPerMo)
	budget := r.measuredBudget()

	resetPeakRSS()
	r.calib()
	var first uint64
	err = untilDeadline(budget*0.6, r.repFloor(), func(i int) error {
		var (
			preds *core.Predictions
			err   error
		)
		r.measure("core.predict_sharded", i, func() { preds, _, err = st.pipe.PredictSharded(src, win) })
		if err != nil {
			return fmt.Errorf("predict sharded: %w", err)
		}
		r.sameChecksum("sharded predict", &first, i, preds)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", harnessPeakMB())

	var firstWhole uint64
	err = untilDeadline(budget*0.4, r.repFloor(), func(i int) error {
		var preds *core.Predictions
		var err error
		r.measure("core.predict", i, func() { preds, err = st.pipe.Predict(st.w.src, win) })
		if err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		r.sameChecksum("whole-window predict", &firstWhole, i, preds)
		return nil
	})
	if err != nil {
		return err
	}
	if r.tr == nil {
		r.set("main_ms", r.med("core.predict_sharded.norm"))
		r.set("side_ms", r.med("core.predict.norm"))
		return nil
	}
	if err := r.shardedLayers(st.w, st.pipe, src, win); err != nil {
		return err
	}
	if err := r.writePartitionProbe(st.w); err != nil {
		return err
	}
	r.harnessLayers("core.predict_sharded")
	return nil
}

// shardedLayers fills the per-layer metrics of batch_sharded by timing the
// public calls PredictSharded is made of, on the same warehouse.
func (r *run) shardedLayers(w *world, pipe *core.Pipeline, src core.ShardedSource, win features.Window) error {
	var (
		err    error
		tables = make([]features.Tables, src.NumShards())
	)
	r.set("store.shard_read_ms", r.probe("store.shard_read", func() {
		for s := range tables {
			if tables[s], err = features.LoadTablesFrom(src.ShardReader(s), win, daysPerMo); err != nil {
				return
			}
		}
	}))
	if err != nil {
		return err
	}
	var (
		frame *features.Frame
		stats features.ShardStats
	)
	ms := r.probe("features.sharded_build", func() { frame, stats, err = pipe.BuildFrameSharded(src, win) })
	if err != nil {
		return err
	}
	r.set("features.sharded_build_ms", ms)
	r.set("features.sharded_rows_per_s", float64(stats.RawRows)/(ms/1e3))

	truth, err := src.Truth(win.SnapshotMonth(daysPerMo))
	if err != nil {
		return err
	}
	if truth, err = table.SortByInt(truth, "imsi"); err != nil {
		return err
	}
	in := features.GraphFeatureInput{
		PrevChurners: features.ChurnersOf(truth),
		StableSample: features.StableOf(truth, core.Config{}.WithDefaults().StableSeedStride),
	}
	universe := make(map[int64]bool, frame.NumRows())
	for _, id := range frame.IDs() {
		universe[id] = true
	}
	isCustomer := func(id int64) bool { return universe[id] || in.PrevChurners[id] }
	var acc *features.GraphAccumulator
	r.set("features.graph_accumulate_ms", r.probe("features.graph_accumulate", func() {
		acc = features.NewGraphAccumulator(src.NumShards(), defaultGroups)
		for s, tbl := range tables {
			acc.Feed(s, tbl, win, daysPerMo, isCustomer)
		}
		acc.Finalize()
	}))
	call, _, _ := acc.Finalize()
	r.graphProbes(call, in)

	rows := make([][]float64, frame.NumRows())
	for i, id := range frame.IDs() {
		rows[i], _ = frame.Row(id)
	}
	clf := pipe.Classifier()
	r.set("tree.score_all_ms", r.probe("tree.score_all", func() { clf.ScoreAll(rows) }))
	return nil
}
