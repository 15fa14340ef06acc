package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"

	"telcochurn/internal/core"
	"telcochurn/internal/dataset"
	"telcochurn/internal/features"
	"telcochurn/internal/fm"
	"telcochurn/internal/graph"
	"telcochurn/internal/sampling"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
	"telcochurn/internal/topic"
	"telcochurn/internal/tree"
)

// perLayer are the metrics of the traced run, `<module>.<metric>`. Every
// traced run prints every one; a layer the workload does not exercise reads
// 0. The five without a module prefix are the issue's end-to-end names that
// are not gated (README.md, "Demoted metrics"), as measured.
var perLayer = []metricDef{
	{"synth.generate_s", "s", "lower"},
	{"store.write_partition_ms", "ms", "lower"},
	{"store.read_tables_ms", "ms", "lower"},
	{"store.read_mb_per_s", "MB/s", "higher"},
	{"store.shard_read_ms", "ms", "lower"},
	{"table.groupby_ms", "ms", "lower"},
	{"table.hashjoin_ms", "ms", "lower"},
	{"features.base_build_ms", "ms", "lower"},
	{"features.graph_features_ms", "ms", "lower"},
	{"graph.pagerank_ms", "ms", "lower"},
	{"graph.labelprop_ms", "ms", "lower"},
	{"features.topic_fit_ms", "ms", "lower"},
	{"topic.lda_fit_ms", "ms", "lower"},
	{"features.topic_apply_ms", "ms", "lower"},
	{"features.secondorder_fit_ms", "ms", "lower"},
	{"fm.fit_ms", "ms", "lower"},
	{"tree.forest_fit_ms", "ms", "lower"},
	{"tree.score_all_ms", "ms", "lower"},
	{"core.fit_ms", "ms", "lower"},
	{"core.frame_build_ms", "ms", "lower"},
	{"core.fit_coverage", "ratio", "higher"},
	{"features.sharded_build_ms", "ms", "lower"},
	{"features.sharded_rows_per_s", "1/s", "higher"},
	{"features.graph_accumulate_ms", "ms", "lower"},
	{"core.artifact_save_ms", "ms", "lower"},
	{"core.artifact_load_ms", "ms", "lower"},
	{"core.artifact_mb", "MB", "lower"},
	{"core.precompute_ms", "ms", "lower"},
	{"tree.score_one_ns", "ns", "lower"},
	{"serve.vector_lookup_ns", "ns", "lower"},
	{"serve.score_one_ns", "ns", "lower"},
	{"serve.score_batch64_us", "us", "lower"},
	{"serve.batch_size_mean", "count", "higher"},
	{"serve.queue_full", "count", "lower"},
	{"churnd.http_overhead_us", "us", "lower"},
	{"churnd.cpu_us_per_req", "us", "lower"},
	{"churnd.rss_mb", "MB", "lower"},
	{"churnd.boot_ready_ms", "ms", "lower"},
	{"serve.build_event_tables_us", "us", "lower"},
	{"store.eventlog_append_ms", "ms", "lower"},
	{"store.eventlog_append_nosync_ms", "ms", "lower"},
	{"store.eventlog_bytes_per_event", "B", "lower"},
	{"store.eventlog_replay_ms", "ms", "lower"},
	{"store.eventlog_merge_ms", "ms", "lower"},
	{"core.incremental_ingest_us", "us", "lower"},
	{"core.incremental_refresh_us", "us", "lower"},
	{"features.customer_frame_us", "us", "lower"},
	{"serve.overlay_override_ns", "ns", "lower"},
	{"churnd.ingest_first_ms", "ms", "lower"},
	{"churnd.ingest_last_ms", "ms", "lower"},
	{"churnd.ingest_growth", "ratio", "lower"},
	{"churnd.refresh_took_ms", "ms", "lower"},
	{"procstat.peak_rss_mb", "MB", "lower"},
	{"harness.calib_ms", "ms", "lower"},
	{"harness.trace_overhead_pct", "%", "lower"},
	{"score_p50_ms", "ms", "lower"},
	{"score_p99_ms", "ms", "lower"},
	{"score_rps", "1/s", "higher"},
	{"batch_p50_ms", "ms", "lower"},
	{"ingest_events_per_s", "1/s", "higher"},
}

const probeReps = 5 // repetitions behind a stand-alone layer probe's median

// probe times f probeReps times under name and returns the median (ms).
func (r *run) probe(name string, f func()) float64 {
	for i := 0; i < probeReps; i++ {
		r.timed(name, -1, func(int) { f() })
	}
	return r.med(name)
}

// perCallNs times n back-to-back calls of f and returns the cost of one in
// nanoseconds — for calls too short to time singly.
func (r *run) perCallNs(name string, n int, f func(i int)) float64 {
	ms := r.probe(name, func() {
		for i := 0; i < n; i++ {
			f(i)
		}
	})
	return ms * 1e6 / float64(n)
}

// partitionBytes sums the on-disk size of every partition file of the given
// months under a warehouse root.
func partitionBytes(root string, months []int) int64 {
	var total int64
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		for _, m := range months {
			p := fmt.Sprintf("month=%d.", m)
			if strings.HasPrefix(d.Name(), p) && strings.HasSuffix(d.Name(), ".tct") {
				if info, err := d.Info(); err == nil {
					total += info.Size()
				}
			}
		}
		return nil
	})
	return total
}

// fitted holds what the decomposed Fit produced, for the decomposed Predict.
type fitted struct {
	complaints, search *features.TopicFeaturizer
	so                 *features.SecondOrderSelector
	forest             *tree.CompiledForest
}

// graphInput reads the label-propagation seeds the way core does: churners
// and a strided sample of non-churners of the window's own month.
func graphInput(w *world, win features.Window) (features.GraphFeatureInput, error) {
	truth, err := w.src.Truth(win.SnapshotMonth(daysPerMo))
	if err != nil {
		return features.GraphFeatureInput{}, err
	}
	return features.GraphFeatureInput{
		PrevChurners: features.ChurnersOf(truth),
		StableSample: features.StableOf(truth, core.Config{}.WithDefaults().StableSeedStride),
	}, nil
}

// frameStages builds F1-F6 for a window by calling the stage functions
// core.Pipeline.buildFrame calls, in its order, each under its own span.
func (r *run) frameStages(w *world, win features.Window, parent int) (*features.Frame, features.Tables, error) {
	var (
		tbl   features.Tables
		frame *features.Frame
		err   error
	)
	r.timed("store.read_tables", parent, func(int) { tbl, err = w.src.Tables(win) })
	if err != nil {
		return nil, tbl, err
	}
	r.timed("features.base_build", parent, func(int) {
		var base *features.Frame
		if base, err = features.BuildBaseFeatures(tbl, win, daysPerMo, workers); err == nil {
			frame = base.SelectGroups(features.F1Baseline, features.F2CS, features.F3PS)
		}
	})
	if err != nil {
		return nil, tbl, err
	}
	r.timed("features.graph_features", parent, func(int) {
		var in features.GraphFeatureInput
		if in, err = graphInput(w, win); err != nil {
			return
		}
		scratch := features.NewFrame(frame.IDs())
		features.AddGraphFeatures(scratch, tbl, win, daysPerMo, in, workers)
		for _, g := range []features.Group{features.F4CallGraph, features.F5MessageGraph, features.F6CooccurrenceGraph} {
			sub := scratch.SelectGroups(g)
			for j, name := range sub.Names() {
				col := make(map[int64]float64, sub.NumRows())
				for _, id := range sub.IDs() {
					row, _ := sub.Row(id)
					col[id] = row[j]
				}
				frame.AddColumn(g, name, col, 0)
			}
		}
	})
	return frame, tbl, err
}

// decomposedFit is core.Fit for one training month and all nine groups,
// spelled out stage by stage so each stage gets a span. Its forest must
// score bit-identically to the pipeline's (checked by the caller), which is
// what keeps this copy honest.
func (r *run) decomposedFit(w *world, parent int) (*fitted, error) {
	cfg := r.coreConfig().WithDefaults()
	spec := core.MonthSpec(fitMonth, daysPerMo)
	win := spec.Features
	truth, err := w.src.Truth(spec.LabelMonth)
	if err != nil {
		return nil, err
	}
	labels := core.LabelsOf(truth)
	frame, tbl, err := r.frameStages(w, win, parent)
	if err != nil {
		return nil, err
	}
	out := &fitted{}
	r.timed("features.topic_fit", parent, func(int) {
		out.complaints, err = features.FitTopicFeaturizer(tbl.Complaints, win, daysPerMo, features.F7ComplaintTopics, "complaint",
			topic.Config{K: cfg.TopicK, Seed: cfg.Seed + 3})
		if err == nil {
			out.search, err = features.FitTopicFeaturizer(tbl.Search, win, daysPerMo, features.F8SearchTopics, "search",
				topic.Config{K: cfg.TopicK, Seed: cfg.Seed + 5})
		}
	})
	if err != nil {
		return nil, err
	}
	r.timed("features.topic_apply", parent, func(int) {
		out.complaints.Apply(frame, tbl.Complaints, win, daysPerMo)
		out.search.Apply(frame, tbl.Search, win, daysPerMo)
	})
	r.timed("features.secondorder_fit", parent, func(int) {
		out.so, err = features.FitSecondOrder(frame, labels, features.SecondOrderConfig{
			NumPairs: cfg.SecondOrderPairs, FM: fm.Config{Seed: cfg.Seed + 7}})
		if err == nil {
			err = out.so.Apply(frame)
		}
	})
	if err != nil {
		return nil, err
	}
	var balanced *dataset.Dataset
	r.timed("core.stack", parent, func(int) {
		d := frame.ToDataset(labels, -1)
		var keep []int
		for i, y := range d.Y {
			if y >= 0 {
				keep = append(keep, i)
			}
		}
		balanced, err = sampling.Apply(d.Subset(keep), cfg.Imbalance, rand.New(rand.NewSource(cfg.Seed+99)))
	})
	if err != nil {
		return nil, err
	}
	r.timed("tree.forest_fit", parent, func(int) {
		var f *tree.Forest
		if f, err = tree.FitForest(balanced, cfg.Forest); err == nil {
			out.forest = f.Compile()
		}
	})
	return out, err
}

// decomposedPredict is Pipeline.Predict spelled out the same way.
func (r *run) decomposedPredict(w *world, m *fitted, parent int) ([]int64, []float64, error) {
	win := features.MonthWindow(scoreMon, daysPerMo)
	frame, tbl, err := r.frameStages(w, win, parent)
	if err != nil {
		return nil, nil, err
	}
	r.timed("features.topic_apply", parent, func(int) {
		m.complaints.Apply(frame, tbl.Complaints, win, daysPerMo)
		m.search.Apply(frame, tbl.Search, win, daysPerMo)
	})
	if err := m.so.Apply(frame); err != nil {
		return nil, nil, err
	}
	ids := frame.IDs()
	rows := make([][]float64, len(ids))
	for i, id := range ids {
		rows[i], _ = frame.Row(id)
	}
	var scores []float64
	r.timed("tree.score_all", parent, func(int) { scores = m.forest.ScoreAll(rows) })
	return ids, scores, nil
}

// trainLayers fills the per-layer metrics of batch_train: three decomposed
// Fit+Predict passes for the stage breakdown, then stand-alone probes of
// the kernels underneath the stages.
func (r *run) trainLayers(w *world, wantSum uint64) error {
	const passes = 3
	var stageMs float64
	for i := 0; i < passes; i++ {
		var (
			m   *fitted
			err error
		)
		fitMs := r.timed("fit_decomposed", -1, func(id int) { m, err = r.decomposedFit(w, id) })
		if err != nil {
			return err
		}
		var ids []int64
		var scores []float64
		r.timed("predict_decomposed", -1, func(id int) { ids, scores, err = r.decomposedPredict(w, m, id) })
		if err != nil {
			return err
		}
		r.op(checksum(ids, scores) == wantSum, "decomposed Fit+Predict scores differ from core.Fit+Predict")
		stageMs += fitMs
	}
	// Stage spans are the only children of fit_decomposed, so their total
	// is its wall time minus its self time; what core.Fit spends beyond it
	// (or saves) shows as coverage away from 1.
	self := selfTimes(r.tr.spans)
	var selfMs float64
	for i, s := range r.tr.spans {
		if s.Name == "fit_decomposed" {
			selfMs += float64(self[i]) / 1e6
		}
	}
	r.set("core.fit_coverage", (stageMs-selfMs)/passes/r.med("core.fit"))
	for metric, name := range map[string]string{
		"store.read_tables_ms":        "store.read_tables",
		"features.base_build_ms":      "features.base_build",
		"features.graph_features_ms":  "features.graph_features",
		"features.topic_fit_ms":       "features.topic_fit",
		"features.topic_apply_ms":     "features.topic_apply",
		"features.secondorder_fit_ms": "features.secondorder_fit",
		"tree.forest_fit_ms":          "tree.forest_fit",
		"tree.score_all_ms":           "tree.score_all",
		"core.fit_ms":                 "core.fit",
	} {
		r.set(metric, r.med(name))
	}

	win := features.MonthWindow(scoreMon, daysPerMo)
	tbl, err := w.src.Tables(win)
	if err != nil {
		return err
	}
	mb := float64(partitionBytes(w.dir, win.Months(daysPerMo))) / (1 << 20)
	r.set("store.read_mb_per_s", mb/(r.probe("store.read_month", func() { _, err = w.src.Tables(win) })/1e3))
	if err != nil {
		return err
	}
	r.set("table.groupby_ms", r.probe("table.groupby", func() {
		_, err = table.GroupBy(tbl.Calls, "imsi",
			table.Agg{Col: "dur", Func: table.Sum, As: "dur"}, table.Agg{Func: table.Count, As: "cnt"})
	}))
	if err != nil {
		return err
	}
	r.set("table.hashjoin_ms", r.probe("table.hashjoin", func() {
		_, err = table.HashJoin(tbl.Billing, tbl.Customers, "imsi", table.InnerJoin)
	}))
	if err != nil {
		return err
	}
	in, err := graphInput(w, win)
	if err != nil {
		return err
	}
	g := features.BuildCallGraph(tbl, win, daysPerMo, synth.IsCustomerID)
	r.graphProbes(g, in)

	corpus := topic.NewCorpus()
	docs := map[int64][]string{}
	imsi, text := tbl.Complaints.MustCol("imsi").Ints, tbl.Complaints.MustCol("text").Strings
	for i, id := range imsi {
		docs[id] = append(docs[id], text[i])
	}
	for _, id := range sortedIDs(docs) {
		corpus.AddDoc(id, strings.Join(docs[id], " "))
	}
	r.set("topic.lda_fit_ms", r.probe("topic.lda_fit", func() {
		_, err = topic.Fit(corpus, topic.Config{K: 10, Seed: r.seed + 3})
	}))
	if err != nil {
		return err
	}

	// fm.Fit on the month's labeled, standardized base frame — the shape
	// FitSecondOrder hands it, without that function's class downsampling.
	truth, err := w.src.Truth(scoreMon)
	if err != nil {
		return err
	}
	base, err := features.BuildBaseFeatures(tbl, win, daysPerMo, workers)
	if err != nil {
		return err
	}
	d := base.ToDataset(core.LabelsOf(truth), 0).Clone()
	d.Standardize()
	r.set("fm.fit_ms", r.probe("fm.fit", func() {
		_, err = fm.Fit(d, fm.Config{Seed: r.seed + 7, LearningRate: 0.02, Epochs: 30})
	}))
	if err != nil {
		return err
	}
	builder := core.NewFrameBuilder(core.Config{Groups: defaultGroups, Workers: workers})
	r.set("core.frame_build_ms", r.probe("core.frame_build", func() {
		_, err = builder.BuildFrame(w.src, win, false, nil)
	}))
	return err
}

// graphProbes times the two graph algorithms behind F4-F6 on one graph.
func (r *run) graphProbes(g *graph.Graph, in features.GraphFeatureInput) {
	seeds := map[int64]int{}
	for id := range in.StableSample {
		seeds[id] = 0
	}
	for id := range in.PrevChurners {
		seeds[id] = 1
	}
	r.set("graph.pagerank_ms", r.probe("graph.pagerank", func() {
		g.PageRank(graph.PageRankOptions{Workers: workers})
	}))
	r.set("graph.labelprop_ms", r.probe("graph.labelprop", func() {
		g.LabelPropagation(seeds, 2, graph.LabelPropOptions{Workers: workers})
	}))
}

// writePartitionProbe times landing one month of the calls table, the
// largest raw table, into a scratch warehouse of the world's layout.
func (r *run) writePartitionProbe(w *world) error {
	calls, err := w.wh.ReadPartition(synth.TableCalls, scoreMon)
	if err != nil {
		return err
	}
	scratch, err := store.Open(filepath.Join(r.dir, "write-probe"))
	if err != nil {
		return err
	}
	scratch.SetSync(store.SyncPolicy{Mode: store.SyncOff})
	write := scratch.WritePartition
	if w.sw != nil {
		ssw, err := scratch.Sharded(w.sw.Shards())
		if err != nil {
			return err
		}
		write = ssw.WritePartition
	}
	r.set("store.write_partition_ms", r.probe("store.write_partition", func() {
		err = write(synth.TableCalls, scoreMon, calls)
	}))
	return err
}

func sortedIDs[V any](m map[int64]V) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
