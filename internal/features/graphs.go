package features

import (
	"slices"

	"telcochurn/internal/graph"
	"telcochurn/internal/parallel"
	"telcochurn/internal/table"
)

// BuildGraphs builds the call, message and co-occurrence graphs of Section
// 4.1.2 (in that order; nil for a graph none of the groups asks for) from
// one in-memory window: the single-shard case of GraphAccumulator, its
// finalize spread over `workers` goroutines (0 = GOMAXPROCS).
func BuildGraphs(groups []Group, tbl Tables, win Window, daysPerMonth int, isCustomer func(int64) bool, workers int) [3]*graph.Graph {
	acc := NewGraphAccumulator(1, groups)
	acc.Workers = workers
	acc.Feed(0, tbl, win, daysPerMonth, isCustomer)
	call, msg, cooc := acc.Finalize()
	return [3]*graph.Graph{call, msg, cooc}
}

// BuildCallGraph builds the window's call graph alone.
func BuildCallGraph(tbl Tables, win Window, daysPerMonth int, isCustomer func(int64) bool) *graph.Graph {
	return BuildGraphs([]Group{F4CallGraph}, tbl, win, daysPerMonth, isCustomer, 1)[0]
}

// GraphFeatureInput bundles what the graph features need beyond the raw
// tables: the churner seeds from the previous month (known labels) and a
// stable-customer sample for the label-propagation negative class.
type GraphFeatureInput struct {
	// PrevChurners holds customers labeled churners in the month before the
	// feature window (Section 4.1.2: "the churners in the previous month").
	PrevChurners map[int64]bool
	// StableSample holds known non-churners used as class-0 seeds so label
	// propagation has both classes (without them every propagated
	// distribution collapses to the churner class).
	StableSample map[int64]bool
}

// AddGraphFeatures computes PageRank and label-propagation features on the
// three graphs and adds the six F4-F6 columns (paper names from Table 4).
// The graphs come from one pass per table through the fold, whose
// co-occurrence finalize splits customers across `workers` goroutines
// (0 = GOMAXPROCS); they are then scored concurrently, the per-graph
// algorithms parallelizing internally. Columns land in fixed graph order,
// so the frame is bit-identical for any worker count.
func AddGraphFeatures(f *Frame, tbl Tables, win Window, daysPerMonth int, in GraphFeatureInput, workers int) {
	isCustomer := func(id int64) bool {
		_, ok := f.index[id]
		return ok || in.PrevChurners[id]
	}
	scoreGraphsInto(f, BuildGraphs(AllGroups(), tbl, win, daysPerMonth, isCustomer, workers), in, workers)
}

// seedMap flattens the seed input into label-propagation class seeds; the
// churner class wins when a customer appears in both sets.
func seedMap(in GraphFeatureInput) map[int64]int {
	seeds := make(map[int64]int)
	for id := range in.PrevChurners {
		seeds[id] = 1
	}
	for id := range in.StableSample {
		if _, dup := seeds[id]; !dup {
			seeds[id] = 0
		}
	}
	return seeds
}

// scoreGraphsInto computes the graph feature columns of the built graphs
// (nil = group not requested) and adds them to f in canonical F4, F5, F6
// order; every build path ends here. Each graph's PageRank and label
// propagation run as tasks of their own, the co-occurrence graph's — most
// of the half edges — first, so the two cores stay busy to the end.
func scoreGraphsInto(f *Frame, graphs [3]*graph.Graph, in GraphFeatureInput, workers int) {
	suffixes := [3]string{"voice", "message", "cooccurrence"}
	groups := [3]Group{F4CallGraph, F5MessageGraph, F6CooccurrenceGraph}
	seeds := seedMap(in)
	var ranks, probs [3][]float64
	var tasks []func()
	for i := len(graphs) - 1; i >= 0; i-- {
		if g := graphs[i]; g != nil {
			tasks = append(tasks,
				func() { probs[i] = g.LabelPropagation(seeds, 2, graph.LabelPropOptions{Workers: workers}) },
				func() { ranks[i] = g.PageRank(graph.PageRankOptions{Workers: workers}) })
		}
	}
	parallel.Do(workers, tasks...)
	for i, g := range graphs {
		if g == nil {
			continue
		}
		pr, lp := graphColumns(f, g, ranks[i], probs[i])
		// Both columns have one value per frame row by construction.
		_ = f.AddDense(groups[i], "pagerank_"+suffixes[i], pr)
		_ = f.AddDense(groups[i], "labelpropagation_"+suffixes[i], lp)
	}
}

// graphColumns turns one graph's PageRank ranks and two-class label
// propagation rows (by dense index) into its two feature columns by frame
// row: PageRank scaled by vertex count (population-size invariant) and the
// churn-class probability. A customer outside the graph gets rank 0 and
// churn probability 0.5.
func graphColumns(f *Frame, g *graph.Graph, ranks, probs []float64) (pr, lp []float64) {
	pr, lp = make([]float64, f.NumRows()), make([]float64, f.NumRows())
	for r := range lp {
		lp[r] = 0.5
	}
	nv := float64(g.NumVertices())
	for i, id := range g.IDs() {
		if r, ok := f.index[id]; ok {
			pr[r] = ranks[i] * nv
			lp[r] = probs[2*i+1]
		}
	}
	return pr, lp
}

// ChurnersOf extracts the labeled churners of a month from its truth table.
func ChurnersOf(truth *table.Table) map[int64]bool {
	out := make(map[int64]bool)
	imsi := truth.MustCol("imsi").Ints
	churn := truth.MustCol("churn").Ints
	for i, id := range imsi {
		if churn[i] == 1 {
			out[id] = true
		}
	}
	return out
}

// StableOf extracts labeled non-churners of a month, downsampled by taking
// every strideth one in ascending id order (deterministic, no RNG needed for
// seeds, and independent of the order the truth rows were landed or read in).
func StableOf(truth *table.Table, stride int) map[int64]bool {
	if stride < 1 {
		stride = 1
	}
	var stable []int64
	churn := truth.MustCol("churn").Ints
	for i, id := range truth.MustCol("imsi").Ints {
		if churn[i] == 0 {
			stable = append(stable, id)
		}
	}
	slices.Sort(stable)
	out := make(map[int64]bool)
	for k := 0; k < len(stable); k += stride {
		out[stable[k]] = true
	}
	return out
}
