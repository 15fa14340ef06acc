package tree

// Exactness regression tests: the columnar exact path, writing flat node
// arrays, must reproduce the legacy row-major growers' pointer trees
// (legacy_test.go) node for node — same features, same thresholds, same
// Gini improvements, same leaf distributions.
//
// Bit-identity holds whenever split-scan partial sums are exactly
// representable regardless of accumulation order: unit weights (integer
// sums) and power-of-two weights (dyadic sums) for classification, and
// tie-free features for regression (the accumulation order inside a tie
// group is then unique, so even arbitrary weights match).

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"telcochurn/internal/dataset"
)

// tiedDataset draws features from a small discrete grid so every column is
// full of tied values — the case where the legacy unstable sort and the
// columnar presort may visit rows in different orders inside a tie group.
func tiedDataset(n, numFeat int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, numFeat)
	for f := range names {
		names[f] = "f"
	}
	d := dataset.New(names)
	for i := 0; i < n; i++ {
		row := make([]float64, numFeat)
		for f := range row {
			row[f] = float64(rng.Intn(7)) / 7
		}
		y := 0
		if row[0]+0.1*rng.NormFloat64() > 0.5 {
			y = 1
		}
		d.Add(row, y)
	}
	return d
}

// pointerOf rebuilds the subtree at node i of flat storage as legacy
// pointer nodes, so flat and legacy fits compare through one comparator.
// probs holds the class distributions at stride nc (nc 0: a regression
// tree, whose leaves keep their value in thrs).
func pointerOf(n *nodes, probs []float64, nc int, i int32) *legacyNode {
	nd := &legacyNode{n: int(n.counts[i])}
	if nc > 0 {
		nd.probs = probs[int(i)*nc : int(i+1)*nc]
	}
	if n.feats[i] < 0 {
		if nc == 0 {
			nd.value = n.thrs[i]
		}
		return nd
	}
	nd.feature, nd.threshold = int(n.feats[i]), n.thrs[i]
	nd.left = pointerOf(n, probs, nc, n.kids[i])
	nd.right = pointerOf(n, probs, nc, n.kids[i]+1)
	return nd
}

// forestTree is tree t of f as legacy pointer nodes.
func forestTree(f *Forest, t int) *legacyNode {
	return pointerOf(&f.nodes, f.probs, f.numClasses, f.roots[t])
}

// sameNode fails the test unless the two subtrees are identical: structure,
// split feature/threshold, per-node population, and exact (==) leaf values
// and probability vectors.
func sameNode(t *testing.T, got, want *legacyNode, path string) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: one side nil", path)
		}
		return
	}
	if got.isLeaf() != want.isLeaf() {
		t.Fatalf("%s: leaf mismatch (got leaf=%v)", path, got.isLeaf())
	}
	if got.n != want.n {
		t.Fatalf("%s: n = %d, want %d", path, got.n, want.n)
	}
	if got.value != want.value {
		t.Fatalf("%s: value = %v, want %v", path, got.value, want.value)
	}
	if len(got.probs) != len(want.probs) {
		t.Fatalf("%s: probs len %d, want %d", path, len(got.probs), len(want.probs))
	}
	for c := range got.probs {
		if got.probs[c] != want.probs[c] {
			t.Fatalf("%s: probs[%d] = %v, want %v", path, c, got.probs[c], want.probs[c])
		}
	}
	if got.isLeaf() {
		return
	}
	if got.feature != want.feature || got.threshold != want.threshold {
		t.Fatalf("%s: split (f=%d, thr=%v), want (f=%d, thr=%v)",
			path, got.feature, got.threshold, want.feature, want.threshold)
	}
	sameNode(t, got.left, want.left, path+"L")
	sameNode(t, got.right, want.right, path+"R")
}

func sameImportance(t *testing.T, got, want []float64) {
	t.Helper()
	for f := range want {
		if got[f] != want[f] {
			t.Fatalf("importance[%d] = %v, want %v (Gini improvements must match exactly)", f, got[f], want[f])
		}
	}
}

func TestColumnarExactMatchesLegacyUnitWeights(t *testing.T) {
	d := tiedDataset(800, 6, 21)
	for _, cfg := range []Config{
		{MinLeafSamples: 10},
		{MinLeafSamples: 25, FeaturesPerSplit: -1, Seed: 3},
		{MinLeafSamples: 10, FeaturesPerSplit: 2, MaxDepth: 5, Seed: 11},
	} {
		got, err := FitTree(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := legacyFitTree(d, cfg, got.numClasses)
		sameNode(t, forestTree(got, 0), want.root, "root:")
		sameImportance(t, got.treeImp[0], want.importance)
	}
}

func TestColumnarExactMatchesLegacyDyadicWeights(t *testing.T) {
	// Power-of-two weights: every partial sum is a dyadic rational, exactly
	// representable, so accumulation order inside tie groups cannot matter.
	d := tiedDataset(600, 5, 22)
	rng := rand.New(rand.NewSource(23))
	pow2 := []float64{0.5, 1, 2, 4}
	d.W = make([]float64, d.NumInstances())
	for i := range d.W {
		d.W[i] = pow2[rng.Intn(len(pow2))]
	}
	cfg := Config{MinLeafSamples: 15, FeaturesPerSplit: 2, Seed: 7}
	got, err := FitTree(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := legacyFitTree(d, cfg, got.numClasses)
	sameNode(t, forestTree(got, 0), want.root, "root:")
	sameImportance(t, got.treeImp[0], want.importance)
}

func TestColumnarRegressionMatchesLegacy(t *testing.T) {
	// Tie-free features (continuous draws): both scans then accumulate in
	// the same unique sorted order, so even arbitrary weights match exactly.
	rng := rand.New(rand.NewSource(31))
	n := 700
	x := make([][]float64, n)
	targets := make([]float64, n)
	weights := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.Float64()}
		targets[i] = math.Sin(x[i][0]) + 0.3*rng.NormFloat64()
		weights[i] = 0.5 + rng.Float64()
	}
	for _, w := range [][]float64{nil, weights} {
		for _, cfg := range []regConfig{
			{MinLeafSamples: 10},
			{MinLeafSamples: 20, MaxDepth: 4, FeaturesPerSplit: -1, Seed: 5},
		} {
			got := fitRegressionTree(x, targets, w, cfg)
			want := legacyFitRegressionTree(x, targets, w, cfg)
			sameNode(t, pointerOf(got, nil, 0, got.roots[0]), want, "root:")
		}
	}
}

// TestColumnarForestMatchesLegacyPerTreeFits replays FitForest's per-tree
// seed derivation through the legacy grower: each forest tree must equal a
// legacy fit of the same bootstrap (weighted draw included — the resample
// then trains with unit weights, where bit-identity is guaranteed).
func TestColumnarForestMatchesLegacyPerTreeFits(t *testing.T) {
	d := tiedDataset(500, 4, 41)
	d.W = make([]float64, d.NumInstances())
	for i, y := range d.Y {
		if y == 1 {
			d.W[i] = 2.5
		} else {
			d.W[i] = 1
		}
	}
	cfg := ForestConfig{NumTrees: 8, MinLeafSamples: 20, FeaturesPerSplit: -1, Seed: 17}
	f, err := FitForest(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tr := 0; tr < cfg.NumTrees; tr++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(tr)*1_000_003))
		boot := d.Subset(bootstrapIdx(d, rng))
		boot.W = nil // the draw already encoded the weights
		want := legacyFitTree(boot, Config{
			MinLeafSamples:   cfg.MinLeafSamples,
			FeaturesPerSplit: cfg.FeaturesPerSplit,
			Seed:             cfg.Seed + int64(tr)*7_000_003,
		}, f.numClasses)
		sameNode(t, forestTree(f, tr), want.root, "root:")
		sameImportance(t, f.treeImp[tr], want.importance)
	}
}

// expandedLayout lays out the resample x[idx[0]], x[idx[1]], … with one
// position per draw: values and bins gathered from the forest's shared
// colData (so bin edges come from the full matrix), each order sorted by
// value. Grown with unit weights it gives the expanded-resample tree, the
// reference the multiplicity layout must reproduce.
func expandedLayout(cd *colData, idx []int) *colLayout {
	n := len(idx)
	l := &colLayout{binUpper: cd.binUpper, rows: make([]int32, n), goesLeft: make([]uint8, n), scratch: make([]int32, n)}
	for j := range l.rows {
		l.rows[j] = int32(j)
	}
	for f, src := range cd.cols {
		col := make([]float64, n)
		for j, r := range idx {
			col[j] = src[r]
		}
		l.cols = append(l.cols, col)
		if cd.binIdx != nil {
			bins := make([]uint8, n)
			for j, r := range idx {
				bins[j] = cd.binIdx[f][r]
			}
			l.binIdx = append(l.binIdx, bins)
			continue
		}
		ord := append([]int32(nil), l.rows...)
		sort.SliceStable(ord, func(a, b int) bool { return col[ord[a]] < col[ord[b]] })
		l.orders = append(l.orders, ord)
	}
	return l
}

// TestForestMultiplicityMatchesExpandedBootstrap checks every forest tree,
// grown on its distinct drawn rows with draw counts, against the same tree
// grown on the expanded resample, in both split modes. The weighted draw
// repeats rows often, and the min-leaf size sits close to node sizes, so
// the weighted min-leaf rule decides splits both ways.
func TestForestMultiplicityMatchesExpandedBootstrap(t *testing.T) {
	d := tiedDataset(600, 6, 51)
	d.W = make([]float64, d.NumInstances())
	for i, y := range d.Y {
		d.W[i] = 1 + 3*float64(y)
	}
	for _, maxBins := range []int{0, 32} {
		cfg := ForestConfig{NumTrees: 12, MinLeafSamples: 45, FeaturesPerSplit: 3, Seed: 29, MaxBins: maxBins}
		f, err := FitForest(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cd := newColData(d.X, d.NumFeatures(), maxBins)
		for tr := 0; tr < cfg.NumTrees; tr++ {
			idx := bootstrapIdx(d, rand.New(rand.NewSource(cfg.Seed+int64(tr)*1_000_003)))
			y := make([]int, len(idx))
			for j, r := range idx {
				y[j] = d.Y[r]
			}
			tc := Config{MinLeafSamples: cfg.MinLeafSamples, FeaturesPerSplit: cfg.FeaturesPerSplit,
				MaxBins: maxBins, Seed: cfg.Seed + int64(tr)*7_000_003}
			want := newColGrower(expandedLayout(cd, idx), y, nil, f.numClasses, d.NumFeatures(), tc).fit(len(idx), &Forest{})
			path := fmt.Sprintf("bins=%d tree=%d root:", maxBins, tr)
			sameNode(t, forestTree(f, tr), forestTree(want, 0), path)
			sameImportance(t, f.treeImp[tr], want.treeImp[0])
		}
	}
}
