// Package telcochurn's root benchmark harness micro-benchmarks the
// substrates the pipeline is built on (store, frame build, graph
// algorithms, LDA, random forest, scoring); run it with `go test -bench=.
// -benchmem`. The paper's tables and figures are not timed here: `make
// experiments-check` regenerates them and compares them byte for byte with
// experiments_output.txt.
package telcochurn

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"telcochurn/internal/core"
	"telcochurn/internal/dataset"
	"telcochurn/internal/features"
	"telcochurn/internal/graph"
	"telcochurn/internal/procstat"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
	"telcochurn/internal/topic"
	"telcochurn/internal/tree"
)

func benchWorld(b *testing.B) []*synth.MonthData {
	b.Helper()
	cfg := synth.DefaultConfig()
	cfg.Customers = 1500
	cfg.Months = 4
	return synth.Simulate(cfg)
}

// benchTables loads the months through features.MonthReader, the reader
// core.NewMemorySource serves simulator output with.
func benchTables(b *testing.B, months []*synth.MonthData) features.Tables {
	b.Helper()
	r, days := features.MonthReader{}, synth.DefaultConfig().DaysPerMonth
	for _, md := range months {
		r[md.Month] = md
	}
	first, last := months[0].Month, months[len(months)-1].Month
	win := features.Window{FromAbs: features.AbsDay(first, 1, days), ToAbs: features.AbsDay(last, days, days)}
	tbl, err := features.LoadTablesFrom(r, win, days)
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

func BenchmarkSimulateMonth(b *testing.B) {
	cfg := synth.DefaultConfig()
	cfg.Customers = 2000
	w := synth.NewWorld(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.SimulateMonth()
	}
}

// BenchmarkGenerate lands a world at the repository benchmark's sizing
// (1 500 customers x 4 months, one burn-in month, no fsync), plain and as
// 8 shards: simulation, typed appends and the concurrent partition writes.
func BenchmarkGenerate(b *testing.B) {
	cfg := synth.DefaultConfig()
	cfg.Customers = 1500
	cfg.Months = 4
	cfg.Seed = 1
	cfg.BurnInMonths = 1
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wh, err := store.Open(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				wh.SetSync(store.SyncPolicy{Mode: store.SyncOff})
				sw, err := wh.Sharded(shards)
				if err != nil {
					b.Fatal(err)
				}
				if err := synth.GenerateToShardedWarehouse(cfg, sw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadWindow times the whole-window load every frame build makes:
// the nine raw tables of a window read through features.LoadTables at the
// default worker count, over the benchmark-size world (1 500 customers x 4
// months) landed plain and 8-shard. A sharded month joins its eight files
// per table in one table.Concat; a 3-month window joins three months.
func BenchmarkLoadWindow(b *testing.B) {
	cfg := synth.DefaultConfig()
	cfg.Customers = 1500
	cfg.Months = 4
	cfg.Seed = 1
	cfg.BurnInMonths = 1
	days := cfg.DaysPerMonth
	land := func(b *testing.B, shards int) *store.Warehouse {
		wh, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		wh.SetSync(store.SyncPolicy{Mode: store.SyncOff})
		sw, err := wh.Sharded(shards)
		if err != nil {
			b.Fatal(err)
		}
		if err := synth.GenerateToShardedWarehouse(cfg, sw); err != nil {
			b.Fatal(err)
		}
		return wh
	}
	for _, bc := range []struct {
		name   string
		shards int
		win    features.Window
	}{
		{"plain-month", 1, features.MonthWindow(4, days)},
		{"8-shard-month", 8, features.MonthWindow(4, days)},
		{"plain-3-months", 1, features.Window{FromAbs: features.AbsDay(2, 1, days), ToAbs: features.AbsDay(4, days, days)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			wh := land(b, bc.shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := features.LoadTables(wh, bc.win, days, true, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStoreWriteRead(b *testing.B) {
	months := benchWorld(b)
	wh, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	calls := months[0].Calls
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wh.WritePartition("calls", 1, calls); err != nil {
			b.Fatal(err)
		}
		if _, err := wh.ReadPartition("calls", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkerCounts parameterizes the parallel substrate benchmarks; outputs
// are bit-identical across the sweep (see internal/parallel), only wall-clock
// changes.
var benchWorkerCounts = []int{1, 2, 4, 8}

func BenchmarkWideTableBuild(b *testing.B) {
	months := benchWorld(b)
	tbl := benchTables(b, months[:1])
	win := features.MonthWindow(1, 30)
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := features.BuildBaseFeatures(tbl, win, 30, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCustomerFrame re-folds one customer's F1-F3 columns from a
// maintained month: the work an event post repeats for every customer it
// touches. Customers rotate so each iteration folds a different row set.
func BenchmarkCustomerFrame(b *testing.B) {
	months := benchWorld(b)
	tbl := benchTables(b, months[:1])
	m, err := features.NewMaintainer(tbl, features.MonthWindow(1, 30), 30)
	if err != nil {
		b.Fatal(err)
	}
	ids := months[0].Customers.MustCol("imsi").Ints
	groups := []features.Group{features.F1Baseline, features.F2CS, features.F3PS}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CustomerFrame(ids[i%len(ids)], groups, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCustomerFrames re-folds eight customers' F1-F3 columns, the
// customers an 8-event post touches at most: in one CustomerFrames pass
// over the union of their posting lists, and as eight CustomerFrame calls.
// Each iteration takes the next eight customers.
func BenchmarkCustomerFrames(b *testing.B) {
	months := benchWorld(b)
	tbl := benchTables(b, months[:1])
	m, err := features.NewMaintainer(tbl, features.MonthWindow(1, 30), 30)
	if err != nil {
		b.Fatal(err)
	}
	ids := months[0].Customers.MustCol("imsi").Ints
	groups := []features.Group{features.F1Baseline, features.F2CS, features.F3PS}
	const k = 8
	next := func(i int) []int64 {
		lo := i * k % (len(ids) - k)
		return ids[lo : lo+k]
	}
	b.Run("one-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.CustomerFrames(next(i), groups, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-by-one", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, id := range next(i) {
				if _, err := m.CustomerFrame(id, groups, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkShardedWideTableBuild measures the out-of-core F1-F6 build over
// an on-disk sharded warehouse across shard counts. SCALE_CUSTOMERS scales
// the population (default 4000; the scale smoke test runs this path at
// 50k+, see scripts/scale_smoke.sh). Reported raw-rows/sec and peak-RSS-MB
// land in the JSON report's extra fields.
func BenchmarkShardedWideTableBuild(b *testing.B) {
	customers := 4000
	if env := os.Getenv("SCALE_CUSTOMERS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			b.Fatalf("bad SCALE_CUSTOMERS %q", env)
		}
		customers = n
	}
	cfg := synth.DefaultConfig()
	cfg.Customers = customers
	cfg.Months = 2
	cfg.Seed = 17
	cfg.BurnInMonths = 1
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			wh, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			sw, err := wh.Sharded(shards)
			if err != nil {
				b.Fatal(err)
			}
			if err := synth.GenerateToShardedWarehouse(cfg, sw); err != nil {
				b.Fatal(err)
			}
			src := core.NewShardedWarehouseSource(sw, cfg.DaysPerMonth)
			p := core.NewFrameBuilder(core.Config{Groups: []features.Group{
				features.F1Baseline, features.F2CS, features.F3PS,
				features.F4CallGraph, features.F5MessageGraph, features.F6CooccurrenceGraph,
			}})
			win := features.MonthWindow(2, cfg.DaysPerMonth)
			var rawRows int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := p.BuildFrameSharded(src, win)
				if err != nil {
					b.Fatal(err)
				}
				rawRows = stats.RawRows
			}
			b.StopTimer()
			b.ReportMetric(float64(rawRows)*float64(b.N)/b.Elapsed().Seconds(), "raw-rows/sec")
			if peak, ok := procstat.PeakRSSBytes(); ok {
				b.ReportMetric(float64(peak)/(1<<20), "peak-RSS-MB")
			}
		})
	}
}

// BenchmarkGraphFold folds one month of the bench world into each F4-F6
// graph through GraphAccumulator: Feed every shard's hash-partitioned
// tables, then Finalize. shards=1 is the whole-window build; shards=8 adds
// the cross-shard merge.
func BenchmarkGraphFold(b *testing.B) {
	months := benchWorld(b)
	tbl := benchTables(b, months[:1])
	win := features.MonthWindow(1, 30)
	kinds := []struct {
		name  string
		group features.Group
	}{
		{"call", features.F4CallGraph},
		{"message", features.F5MessageGraph},
		{"cooccurrence", features.F6CooccurrenceGraph},
	}
	for _, shards := range []int{1, 8} {
		parts := make([]features.Tables, shards)
		for s := range parts {
			split := func(t *table.Table) *table.Table {
				keys := t.MustCol("imsi").Ints
				return t.Filter(func(i int) bool { return table.ShardOf(keys[i], shards) == s })
			}
			parts[s] = features.Tables{Calls: split(tbl.Calls), Messages: split(tbl.Messages), Locations: split(tbl.Locations)}
		}
		for _, k := range kinds {
			b.Run(fmt.Sprintf("%s/shards=%d", k.name, shards), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					acc := features.NewGraphAccumulator(shards, []features.Group{k.group})
					for s, p := range parts {
						acc.Feed(s, p, win, 30, synth.IsCustomerID)
					}
					acc.Finalize()
				}
			})
		}
	}
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// benchGraphs returns the bench world's month-1 call graph, sparse, and
// its co-occurrence graph, which holds most of the F4-F6 half edges and
// most of the graph stage's time.
func benchGraphs(b *testing.B) []namedGraph {
	b.Helper()
	months := benchWorld(b)
	tbl := benchTables(b, months[:1])
	gs := features.BuildGraphs([]features.Group{features.F4CallGraph, features.F6CooccurrenceGraph},
		tbl, features.MonthWindow(1, 30), 30, synth.IsCustomerID, 0)
	return []namedGraph{{"call", gs[0]}, {"cooccurrence", gs[2]}}
}

func BenchmarkPageRank(b *testing.B) {
	for _, k := range benchGraphs(b) {
		for _, w := range benchWorkerCounts {
			b.Run(fmt.Sprintf("%s/workers=%d", k.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.g.PageRank(graph.PageRankOptions{Workers: w})
				}
			})
		}
	}
}

func BenchmarkLabelPropagation(b *testing.B) {
	for _, k := range benchGraphs(b) {
		seeds := map[int64]int{}
		for i, id := range k.g.IDs() {
			if i%10 == 0 {
				seeds[id] = i % 2
			}
		}
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.g.LabelPropagation(seeds, 2, graph.LabelPropOptions{})
			}
		})
	}
}

// benchSearchTopics returns the search-query featurizer core.Fit trains:
// per-customer documents of the feature month, K = 10, default iterations.
func benchSearchTopics(b *testing.B, tbl features.Tables, days int) *features.TopicFeaturizer {
	b.Helper()
	tf, err := features.FitTopicFeaturizer(tbl.Search, features.MonthWindow(2, days), days,
		features.F8SearchTopics, "search", topic.Config{K: 10, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	return tf
}

// BenchmarkLDAFit fits the F8 search-query model the way core.Fit does: the
// feature month's per-customer corpus through FitTopicFeaturizer (text
// aggregation and tokenizing included) and the belief-propagation sweeps.
func BenchmarkLDAFit(b *testing.B) {
	months := benchWorld(b)
	tbl := benchTables(b, months)
	days := synth.DefaultConfig().DaysPerMonth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSearchTopics(b, tbl, days)
	}
}

// BenchmarkTopicFoldIn folds the scoring month's search documents into the
// fitted model on one goroutine: the F8 half of Predict's topic columns.
func BenchmarkTopicFoldIn(b *testing.B) {
	months := benchWorld(b)
	tbl := benchTables(b, months)
	days := synth.DefaultConfig().DaysPerMonth
	tf := benchSearchTopics(b, tbl, days)
	win := features.MonthWindow(4, days)
	ids := tbl.Customers.MustCol("imsi").Ints
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tf.Apply(features.NewFrame(ids), tbl.Search, win, days)
	}
}

// benchForestData builds the shared tree-benchmark dataset: 3000 rows × 40
// continuous features with a two-feature signal.
func benchForestData() *dataset.Dataset {
	rng := rand.New(rand.NewSource(1))
	d := dataset.New(make([]string, 40))
	for j := range d.FeatureNames {
		d.FeatureNames[j] = fmt.Sprintf("f%d", j)
	}
	for i := 0; i < 3000; i++ {
		row := make([]float64, 40)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		y := 0
		if row[0]+row[1] > 0.5 {
			y = 1
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
	}
	return d
}

// BenchmarkRandomForestFit sweeps split-search modes: bins=0 is the exact
// presorted scan (bit-identical to the legacy grower), bins>0 the quantile
// histogram scan.
func BenchmarkRandomForestFit(b *testing.B) {
	d := benchForestData()
	for _, bins := range []int{0, 32, 255} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := tree.ForestConfig{NumTrees: 50, MinLeafSamples: 25, Seed: 1, MaxBins: bins}
				if _, err := tree.FitForest(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForestScore times a whole Predict over a month: building the
// frame (Config's default group, F1) and then scoring every row. The forest
// walk alone is BenchmarkCompiledScore.
func BenchmarkForestScore(b *testing.B) {
	months := benchWorld(b)
	src := core.NewMemorySource(months, 30)
	p, err := core.Fit(src, []core.WindowSpec{core.MonthSpec(2, 30)}, core.Config{
		Forest: tree.ForestConfig{NumTrees: 60, MinLeafSamples: 15, Seed: 1},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Predict(src, features.MonthWindow(3, 30)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledScore times the forest walk alone, on the
// serving model's shape (F1-F6 frame, 100 trees, min-leaf 25): `single` is
// one row through SingleScorer.Score, `batch64` one 64-row ScoreAll — the
// batch a 64-id score request hands the classifier.
func BenchmarkCompiledScore(b *testing.B) {
	months := benchWorld(b)
	src := core.NewMemorySource(months, 30)
	p, err := core.Fit(src, []core.WindowSpec{core.MonthSpec(2, 30)}, core.Config{
		Groups: []features.Group{features.F1Baseline, features.F2CS, features.F3PS,
			features.F4CallGraph, features.F5MessageGraph, features.F6CooccurrenceGraph},
		Forest: tree.ForestConfig{NumTrees: 100, MinLeafSamples: 25, Seed: 1},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	frame, err := p.BuildFrame(src, features.MonthWindow(3, 30), false, nil)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]float64, frame.NumRows())
	for i, id := range frame.IDs() {
		rows[i], _ = frame.Row(id)
	}
	clf := p.Classifier()
	single := clf.(core.SingleScorer)
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			single.Score(rows[i%len(rows)])
		}
	})
	b.Run("batch64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := i * 64 % (len(rows) - 64)
			clf.ScoreAll(rows[lo : lo+64])
		}
	})
}
