package tree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"telcochurn/internal/dataset"
)

func TestGiniValues(t *testing.T) {
	cases := []struct {
		mass []float64
		want float64
	}{
		{[]float64{10, 0}, 0},
		{[]float64{5, 5}, 0.5},
		{[]float64{0, 0}, 0},
		{[]float64{1, 1, 1, 1}, 0.75},
	}
	for _, c := range cases {
		if got := Gini(c.mass); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Gini(%v) = %g, want %g", c.mass, got, c.want)
		}
	}
}

// separable builds a dataset where x0 > 0.5 implies class 1.
func separable(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New([]string{"x0", "noise"})
	for i := 0; i < n; i++ {
		x := rng.Float64()
		y := 0
		if x > 0.5 {
			y = 1
		}
		d.Add([]float64{x, rng.NormFloat64()}, y)
	}
	return d
}

// fitTree trains one CART classification tree on the whole dataset with
// the grower FitForest runs per tree (Gini splitting, Eqs. 5-6,
// per-instance weights), and returns it as a one-tree Forest.
func fitTree(d *dataset.Dataset, cfg Config) *Forest {
	cfg = cfg.withDefaults()
	cd := newColData(d.X, d.NumFeatures(), cfg.MaxBins, 1)
	f, imp := newColGrower(newLayout(cd), d.Y, weightsOf(d), max(d.NumClasses(), 2), d.NumFeatures(), cfg).fit(d.NumInstances(), &Forest{})
	f.features = d.FeatureNames
	f.importance = normalizedSum([][]float64{imp}, d.NumFeatures())
	return f
}

// BenchmarkTreeFit measures one deep CART tree (all features per split) over
// the columnar backend — the per-tree cost without forest-level sharing.
func BenchmarkTreeFit(b *testing.B) {
	d := synthDataset(3000, 40, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fitTree(d, Config{MinLeafSamples: 25, Seed: 1})
	}
}

func TestTreeLearnsSeparableData(t *testing.T) {
	d := separable(500, 1)
	tr := fitTree(d, Config{MinLeafSamples: 10})
	correct := 0
	test := separable(200, 2)
	for i, x := range test.X {
		if argmax(tr.PredictProba(x)) == test.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / 200; acc < 0.95 {
		t.Errorf("tree accuracy %.2f on separable data, want >= 0.95", acc)
	}
}

// numLeaves counts a fitted forest's leaves, in all its trees.
func numLeaves(f *Forest) int {
	n := 0
	for _, feat := range f.feats {
		if feat < 0 {
			n++
		}
	}
	return n
}

// minLeafSize is the smallest training population of any leaf of a fitted
// forest, for invariant testing against Config.MinLeafSamples.
func minLeafSize(f *Forest) int {
	m := math.MaxInt
	for i, feat := range f.feats {
		if feat < 0 {
			m = min(m, int(f.counts[i]))
		}
	}
	return m
}

func TestTreeMinLeafInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(400)
		d := dataset.New([]string{"a", "b", "c"})
		for i := 0; i < n; i++ {
			d.Add([]float64{rng.NormFloat64(), rng.NormFloat64(), rng.Float64()}, rng.Intn(2))
		}
		minLeaf := 5 + rng.Intn(30)
		return minLeafSize(fitTree(d, Config{MinLeafSamples: minLeaf, Seed: seed})) >= minLeaf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTreeMaxDepth(t *testing.T) {
	d := separable(400, 3)
	tr := fitTree(d, Config{MinLeafSamples: 2, MaxDepth: 1})
	if n := numLeaves(tr); n > 2 {
		t.Errorf("depth-1 tree has %d leaves", n)
	}
}

func TestTreePureNodeStops(t *testing.T) {
	d := dataset.New([]string{"x"})
	for i := 0; i < 50; i++ {
		d.Add([]float64{float64(i)}, 0)
	}
	tr := fitTree(d, Config{MinLeafSamples: 5})
	if n := numLeaves(tr); n != 1 {
		t.Errorf("pure data grew %d leaves", n)
	}
	if p := tr.PredictProba([]float64{10}); p[0] != 1 {
		t.Errorf("pure-class proba = %v", p)
	}
}

func TestTreeEmptyDataset(t *testing.T) {
	if _, err := FitForest(dataset.New([]string{"x"}), ForestConfig{}); err == nil {
		t.Error("want error for empty dataset")
	}
}

func TestWeightedInstancesShiftLeafProbs(t *testing.T) {
	// Same feature value, mixed labels: leaf probability follows weights.
	d := dataset.New([]string{"x"})
	for i := 0; i < 10; i++ {
		d.Add([]float64{1}, i%2)
	}
	d.W = make([]float64, 10)
	for i := range d.W {
		if d.Y[i] == 1 {
			d.W[i] = 3
		} else {
			d.W[i] = 1
		}
	}
	tr := fitTree(d, Config{MinLeafSamples: 5})
	p := tr.PredictProba([]float64{1})
	if math.Abs(p[1]-0.75) > 1e-12 {
		t.Errorf("weighted leaf prob = %g, want 0.75", p[1])
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	d := separable(300, 4)
	cfg := ForestConfig{NumTrees: 20, MinLeafSamples: 10, Seed: 9}
	f1, err := FitForest(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := FitForest(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := []float64{float64(i) / 20, 0}
		if f1.Score(x) != f2.Score(x) {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestForestBeatsGuessing(t *testing.T) {
	d := separable(600, 5)
	f, err := FitForest(d, ForestConfig{NumTrees: 30, MinLeafSamples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	test := separable(300, 6)
	correct := 0
	for i, x := range test.X {
		if argmax(f.PredictProba(x)) == test.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / 300; acc < 0.93 {
		t.Errorf("forest accuracy %.2f, want >= 0.93", acc)
	}
}

func TestForestImportanceNormalizedAndFocused(t *testing.T) {
	d := separable(600, 7)
	f, err := FitForest(d, ForestConfig{NumTrees: 30, MinLeafSamples: 10, Seed: 2, FeaturesPerSplit: 1})
	if err != nil {
		t.Fatal(err)
	}
	imp := f.Importance()
	sum := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Errorf("negative importance %g", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importance sum = %g, want 1", sum)
	}
	if imp[0] <= imp[1] {
		t.Errorf("informative feature importance %g <= noise %g", imp[0], imp[1])
	}
}

func TestForestMultiClass(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := dataset.New([]string{"x"})
	for i := 0; i < 600; i++ {
		x := rng.Float64() * 3
		d.Add([]float64{x}, int(x))
	}
	f, err := FitForest(d, ForestConfig{NumTrees: 25, MinLeafSamples: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if f.numClasses != 3 {
		t.Fatalf("NumClasses = %d", f.numClasses)
	}
	for _, c := range []struct {
		x    float64
		want int
	}{{0.3, 0}, {1.5, 1}, {2.7, 2}} {
		if got := argmax(f.PredictProba([]float64{c.x})); got != c.want {
			t.Errorf("most probable class at %g = %d, want %d", c.x, got, c.want)
		}
	}
	probs := f.PredictProba([]float64{1.5})
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("proba sum = %g", sum)
	}
}

func TestForestScoreAllMatchesScore(t *testing.T) {
	d := separable(300, 9)
	f, err := FitForest(d, ForestConfig{NumTrees: 10, MinLeafSamples: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	batch := f.ScoreAll(d.X[:50])
	for i := 0; i < 50; i++ {
		if batch[i] != f.Score(d.X[i]) {
			t.Fatal("ScoreAll disagrees with Score")
		}
	}
}

// TestWeightedBootstrapOversamplesMinority: with class-balancing weights,
// each tree's bootstrap should hold far more minority mass than a uniform
// draw would.
func TestWeightedBootstrapOversamplesMinority(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := separable(0, 14) // empty; fill manually with 10% positives
	for i := 0; i < 1000; i++ {
		y := 0
		if i%10 == 0 {
			y = 1
		}
		d.Add([]float64{rng.Float64(), rng.NormFloat64()}, y)
	}
	d.W = make([]float64, d.NumInstances())
	for i, y := range d.Y {
		if y == 1 {
			d.W[i] = 5 // class-balancing weight
		} else {
			d.W[i] = 0.555
		}
	}
	idx := bootstrapIdx(d, rand.New(rand.NewSource(3)))
	pos := 0
	for _, i := range idx {
		if d.Y[i] == 1 {
			pos++
		}
	}
	frac := float64(pos) / float64(len(idx))
	// Weighted draw targets ~50% positives; uniform would give ~10%.
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("weighted bootstrap positive fraction %.3f, want ~0.5", frac)
	}
}

func TestHistogramTreeLearnsSeparableData(t *testing.T) {
	d := separable(500, 1)
	tr := fitTree(d, Config{MinLeafSamples: 10, MaxBins: 32})
	correct := 0
	test := separable(200, 2)
	for i, x := range test.X {
		if argmax(tr.PredictProba(x)) == test.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / 200; acc < 0.95 {
		t.Errorf("histogram tree accuracy %.2f on separable data, want >= 0.95", acc)
	}
}

func TestHistogramForestLearnsAndClampsBins(t *testing.T) {
	d := separable(600, 15)
	// MaxBins above the uint8 limit must clamp, not break.
	f, err := FitForest(d, ForestConfig{NumTrees: 30, MinLeafSamples: 10, Seed: 1, MaxBins: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	test := separable(300, 16)
	correct := 0
	for i, x := range test.X {
		if argmax(f.PredictProba(x)) == test.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / 300; acc < 0.93 {
		t.Errorf("histogram forest accuracy %.2f, want >= 0.93", acc)
	}
}

func TestHistogramBinEdges(t *testing.T) {
	// Tied values must share a bin: only 3 distinct values means at most 2
	// cut points no matter how many bins were requested.
	sorted := []float64{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}
	edges := binEdges(sorted, 8)
	if len(edges) > 2 {
		t.Fatalf("binEdges produced %d edges for 3 distinct values", len(edges))
	}
	for _, e := range edges {
		if e != 1.5 && e != 2.5 {
			t.Errorf("edge %v is not a midpoint between distinct values", e)
		}
	}
	if got := binEdges([]float64{5, 5, 5, 5}, 4); len(got) != 0 {
		t.Errorf("constant feature produced edges %v", got)
	}
}

func TestGBDTHistogramMode(t *testing.T) {
	d := separable(600, 17)
	g, err := FitGBDT(d, GBDTConfig{NumTrees: 40, MinLeafSamples: 20, Seed: 1, MaxBins: 32})
	if err != nil {
		t.Fatal(err)
	}
	test := separable(300, 18)
	correct := 0
	for i, x := range test.X {
		pred := 0
		if g.Score(x) > 0.5 {
			pred = 1
		}
		if pred == test.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / 300; acc < 0.93 {
		t.Errorf("histogram GBDT accuracy %.2f, want >= 0.93", acc)
	}
}

func TestRegressionTreeFitsStep(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 500
	x := make([][]float64, n)
	targets := make([]float64, n)
	for i := range x {
		v := rng.Float64()
		x[i] = []float64{v}
		if v > 0.5 {
			targets[i] = 10
		} else {
			targets[i] = -10
		}
	}
	tr := fitRegressionTree(x, targets, nil, regConfig{MinLeafSamples: 10})
	predict := func(x []float64) float64 { return tr.thrs[leafOf(tr, tr.roots[0], x)] }
	if got := predict([]float64{0.9}); math.Abs(got-10) > 0.5 {
		t.Errorf("predict(0.9) = %g, want ~10", got)
	}
	if got := predict([]float64{0.1}); math.Abs(got+10) > 0.5 {
		t.Errorf("predict(0.1) = %g, want ~-10", got)
	}
}

func TestGBDTLearnsAndImprovesWithRounds(t *testing.T) {
	d := separable(600, 11)
	short, err := FitGBDT(d, GBDTConfig{NumTrees: 3, MinLeafSamples: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	long, err := FitGBDT(d, GBDTConfig{NumTrees: 60, MinLeafSamples: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	test := separable(300, 12)
	acc := func(g *GBDT) float64 {
		ok := 0
		for i, x := range test.X {
			pred := 0
			if g.Score(x) > 0.5 {
				pred = 1
			}
			if pred == test.Y[i] {
				ok++
			}
		}
		return float64(ok) / float64(len(test.X))
	}
	aShort, aLong := acc(short), acc(long)
	if aLong < aShort {
		t.Errorf("more boosting rounds hurt: %.3f -> %.3f", aShort, aLong)
	}
	if aLong < 0.95 {
		t.Errorf("GBDT accuracy %.3f, want >= 0.95", aLong)
	}
}

func TestGBDTScoresAreProbabilities(t *testing.T) {
	d := separable(300, 13)
	g, err := FitGBDT(d, GBDTConfig{NumTrees: 20, MinLeafSamples: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range g.ScoreAll(d.X[:100]) {
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("score %g out of [0,1]", s)
		}
	}
}

func TestGBDTRejectsNonBinary(t *testing.T) {
	d := dataset.New([]string{"x"})
	d.Add([]float64{1}, 2)
	if _, err := FitGBDT(d, GBDTConfig{}); err == nil {
		t.Error("want error for non-binary labels")
	}
}

// TestGBDTMarginUpdate pins FitGBDT's leaf-side margin update to the
// per-row walk it replaced: the same node arrays at exact and binned splits,
// over NaN-poisoned rows, at min-leaf 1 and 25.
func TestGBDTMarginUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := noisyDataset(rng, 400, 4, 2)
	for _, x := range d.X {
		if rng.Intn(4) == 0 {
			x[rng.Intn(len(x))] = math.NaN()
		}
	}
	for _, bins := range []int{0, 32} {
		for _, minLeaf := range []int{1, 25} {
			cfg := GBDTConfig{NumTrees: 15, MaxDepth: 4, MinLeafSamples: minLeaf, Seed: 3, MaxBins: bins}
			g, err := FitGBDT(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gbdtWords(g), gbdtWords(fitGBDTRowWalk(d, cfg))) {
				t.Errorf("bins %d, min leaf %d: GBDT nodes differ from the per-row margin walk", bins, minLeaf)
			}
		}
	}
}

// fitGBDTRowWalk is FitGBDT with its former margin update: after each
// round, every training row walks the new tree for its step.
func fitGBDTRowWalk(d *dataset.Dataset, cfg GBDTConfig) *GBDT {
	cfg = cfg.withDefaults()
	w := weightsOf(d)
	g := &GBDT{bias: logOddsPrior(d.Y, w), lr: cfg.LearningRate}
	f, residual := make([]float64, len(d.X)), make([]float64, len(d.X))
	for i := range f {
		f[i] = g.bias
	}
	cd := newColData(d.X, d.NumFeatures(), clampBins(cfg.MaxBins), 1)
	for t := 0; t < cfg.NumTrees; t++ {
		for i := range residual {
			residual[i] = float64(d.Y[i]) - sigmoid(f[i])
		}
		fitRegressionTreeOnData(cd, residual, w, regConfig{
			MinLeafSamples: cfg.MinLeafSamples, MaxDepth: cfg.MaxDepth, MaxBins: clampBins(cfg.MaxBins),
			Seed:      cfg.Seed + int64(t)*2_000_003,
			LeafValue: func(idx []int) float64 { return newtonStep(idx, f, residual, w) },
		}, &g.nodes)
		root := g.roots[len(g.roots)-1]
		for i, x := range d.X {
			f[i] += float64(cfg.LearningRate * g.thrs[leafOf(&g.nodes, root, x)])
		}
	}
	return g
}
