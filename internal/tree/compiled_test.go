package tree

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"telcochurn/internal/dataset"
)

// noisyDataset builds a random classification dataset with feats features,
// classes classes, and occasional NaN cells so fitted trees route missing
// values too.
func noisyDataset(rng *rand.Rand, n, feats, classes int) *dataset.Dataset {
	names := make([]string, feats)
	for j := range names {
		names[j] = string(rune('a' + j))
	}
	d := dataset.New(names)
	for i := 0; i < n; i++ {
		x := make([]float64, feats)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := 0
		if x[0]+0.3*x[feats-1] > 0 {
			y = 1
		}
		if classes > 2 && rng.Float64() < 0.25 {
			y = rng.Intn(classes)
		}
		d.Add(x, y)
	}
	return d
}

// probe draws a random instance, occasionally poisoning cells with NaN or
// ±Inf, so traversal identity is checked on missing values as well.
func probe(rng *rand.Rand, feats int) []float64 {
	x := make([]float64, feats)
	for j := range x {
		switch rng.Intn(10) {
		case 0:
			x[j] = math.NaN()
		case 1:
			x[j] = math.Inf(1 - 2*rng.Intn(2))
		default:
			x[j] = rng.NormFloat64() * 3
		}
	}
	return x
}

// leafOf is the plain walk the lockstep kernel is pinned against: row x
// down the tree at root, one node at a time, `x <= threshold` going left.
func leafOf(n *nodes, root int32, x []float64) int32 {
	i := root
	for n.feats[i] >= 0 {
		if x[n.feats[i]] <= n.thrs[i] {
			i = n.kids[i]
		} else {
			i = n.kids[i] + 1
		}
	}
	return i
}

// treeAverage is the reference forest score: each tree's leaf
// distribution, found by leafOf, summed and divided in tree order (Eq. 4).
func treeAverage(f *Forest, x []float64) []float64 {
	nc := f.numClasses
	probs := make([]float64, nc)
	for _, r := range f.roots {
		l := int(leafOf(&f.nodes, r, x))
		for c := range probs {
			probs[c] += f.probs[l*nc+c]
		}
	}
	for c := range probs {
		probs[c] /= float64(len(f.roots))
	}
	return probs
}

// roundSum is the reference GBDT score: the bias plus lr times each
// round's leaf value, found by leafOf, in round order, through the
// sigmoid.
func roundSum(g *GBDT, x []float64) float64 {
	f := g.bias
	for _, r := range g.roots {
		f += float64(g.lr * g.thrs[leafOf(&g.nodes, r, x)])
	}
	return sigmoid(f)
}

// addLeafTree appends a tree that is a bare leaf with class-1 probability
// p to a 2-class forest.
func addLeafTree(f *Forest, p float64) {
	r := f.alloc(1)
	f.probs[2*r], f.probs[2*r+1] = 1-p, p
	f.setLeaf(r, p, 0)
	f.roots = append(f.roots, r)
	f.treeImp = append(f.treeImp, nil)
}

// argmax is the most probable class, the first on ties.
func argmax(probs []float64) int {
	best := 0
	for c, p := range probs {
		if p > probs[best] {
			best = c
		}
	}
	return best
}

// TestCompiledForestBitIdentical is the kernel's property: across random
// forests (size, depth, bins, class count) and random probes (including NaN
// and ±Inf cells), the lockstep walker's PredictProba and Score are
// bit-for-bit the one-node-at-a-time walks averaged in tree order.
func TestCompiledForestBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		feats := 2 + rng.Intn(5)
		classes := 2 + rng.Intn(2)
		d := noisyDataset(rng, 80+rng.Intn(300), feats, classes)
		cfg := ForestConfig{
			NumTrees:       1 + rng.Intn(12),
			MaxDepth:       1 + rng.Intn(8),
			MinLeafSamples: 1 + rng.Intn(20),
			Seed:           seed,
		}
		if rng.Intn(2) == 1 {
			cfg.MaxBins = 8 + rng.Intn(56)
		}
		forest, err := FitForest(d, cfg)
		if err != nil {
			t.Logf("seed %d: fit: %v", seed, err)
			return false
		}
		cf := forest.Compile()
		if cf != forest || cf.NumTrees() != cfg.NumTrees {
			t.Logf("seed %d: Compile is not the %d-tree forest itself", seed, cfg.NumTrees)
			return false
		}
		buf := make([]float64, cf.NumClasses())
		for i := 0; i < 50; i++ {
			x := probe(rng, feats)
			want := treeAverage(forest, x)
			got := cf.PredictProba(x)
			for c := range want {
				if math.Float64bits(want[c]) != math.Float64bits(got[c]) {
					t.Logf("seed %d: proba[%d] %v != %v at %v", seed, c, got[c], want[c], x)
					return false
				}
			}
			cf.PredictProbaInto(x, buf)
			for c := range want {
				if math.Float64bits(buf[c]) != math.Float64bits(want[c]) {
					t.Logf("seed %d: probaInto mismatch", seed)
					return false
				}
			}
			if math.Float64bits(cf.Score(x)) != math.Float64bits(want[1]) {
				t.Logf("seed %d: score mismatch at %v", seed, x)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCompiledGBDTBitIdentical: same property for the boosted ensemble.
func TestCompiledGBDTBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		feats := 2 + rng.Intn(5)
		d := noisyDataset(rng, 120+rng.Intn(300), feats, 2)
		cfg := GBDTConfig{
			NumTrees:       1 + rng.Intn(20),
			MaxDepth:       1 + rng.Intn(5),
			MinLeafSamples: 1 + rng.Intn(25),
			Seed:           seed,
		}
		if rng.Intn(2) == 1 {
			cfg.MaxBins = 8 + rng.Intn(56)
		}
		model, err := FitGBDT(d, cfg)
		if err != nil {
			t.Logf("seed %d: fit: %v", seed, err)
			return false
		}
		if model.NumTrees() != cfg.NumTrees {
			t.Logf("seed %d: %d rounds, want %d", seed, model.NumTrees(), cfg.NumTrees)
			return false
		}
		for i := 0; i < 50; i++ {
			x := probe(rng, feats)
			if math.Float64bits(model.Score(x)) != math.Float64bits(roundSum(model, x)) {
				t.Logf("seed %d: score mismatch at %v", seed, x)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCompiledRoundTripPreservesScores: serialize → deserialize must score
// bit-identically to the original — i.e. the artifact path cannot perturb
// scoring.
func TestCompiledRoundTripPreservesScores(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		feats := 2 + rng.Intn(4)
		d := noisyDataset(rng, 100+rng.Intn(200), feats, 2)
		forest, err := FitForest(d, ForestConfig{
			NumTrees: 1 + rng.Intn(8), MaxDepth: 1 + rng.Intn(6),
			MinLeafSamples: 2 + rng.Intn(15), Seed: seed,
		})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := forest.WriteTo(&buf); err != nil {
			return false
		}
		loaded, err := ReadForest(&buf)
		if err != nil {
			return false
		}

		model, err := FitGBDT(d, GBDTConfig{
			NumTrees: 1 + rng.Intn(10), MaxDepth: 1 + rng.Intn(4),
			MinLeafSamples: 2 + rng.Intn(15), Seed: seed,
		})
		if err != nil {
			return false
		}
		var gbuf bytes.Buffer
		if _, err := model.WriteTo(&gbuf); err != nil {
			return false
		}
		gloaded, err := ReadGBDT(&gbuf)
		if err != nil {
			return false
		}

		for i := 0; i < 40; i++ {
			x := probe(rng, feats)
			if math.Float64bits(forest.Score(x)) != math.Float64bits(loaded.Score(x)) {
				t.Logf("seed %d: forest round-trip score drift at %v", seed, x)
				return false
			}
			if math.Float64bits(model.Score(x)) != math.Float64bits(gloaded.Score(x)) {
				t.Logf("seed %d: gbdt round-trip score drift at %v", seed, x)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestCompiledScoreAllMatchesForest pins the batch paths to the per-tree
// references too.
func TestCompiledScoreAllMatchesForest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := noisyDataset(rng, 400, 4, 2)
	forest, err := FitForest(d, ForestConfig{NumTrees: 10, MinLeafSamples: 5, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 200)
	for i := range xs {
		xs[i] = probe(rng, 4)
	}
	for i, got := range forest.ScoreAll(xs) {
		if want := treeAverage(forest, xs[i])[1]; math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("ScoreAll[%d] = %v, want %v", i, got, want)
		}
	}

	model, err := FitGBDT(d, GBDTConfig{NumTrees: 12, MinLeafSamples: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range model.ScoreAll(xs) {
		if want := roundSum(model, xs[i]); math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("GBDT ScoreAll[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestCompiledScoreAllocFree guards the zero-allocation contract of the
// single-instance scoring paths.
func TestCompiledScoreAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := noisyDataset(rng, 300, 4, 2)
	forest, err := FitForest(d, ForestConfig{NumTrees: 8, MinLeafSamples: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	x := probe(rng, 4)
	out := make([]float64, forest.NumClasses())
	if n := testing.AllocsPerRun(200, func() { forest.Score(x) }); n != 0 {
		t.Errorf("Forest.Score allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { forest.PredictProbaInto(x, out) }); n != 0 {
		t.Errorf("PredictProbaInto allocates %.1f/op, want 0", n)
	}
	model, err := FitGBDT(d, GBDTConfig{NumTrees: 10, MinLeafSamples: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { model.Score(x) }); n != 0 {
		t.Errorf("GBDT.Score allocates %.1f/op, want 0", n)
	}
}

// laneForest fits a forest of 9 trees and turns every third tree (the
// 2nd, 5th and 8th) into a bare leaf, so lockstep groups mix walks that
// end at the root with walks that go deep. The replaced trees' nodes stay
// in the arrays, unreachable.
func laneForest(t *testing.T, rng *rand.Rand, feats int) *Forest {
	t.Helper()
	d := noisyDataset(rng, 300, feats, 2)
	forest, err := FitForest(d, ForestConfig{NumTrees: 9, MinLeafSamples: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(forest.roots); i += 3 {
		addLeafTree(forest, rng.Float64())
		last := len(forest.roots) - 1
		forest.roots[i] = forest.roots[last]
		forest.roots, forest.treeImp = forest.roots[:last], forest.treeImp[:last]
	}
	return forest
}

// probes draws n rows of probe cells (NaN and ±Inf included).
func probes(rng *rand.Rand, n, feats int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = probe(rng, feats)
	}
	return xs
}

// TestCompiledScoreAllLanes pins ScoreAll to the per-tree references
// across every shape the lane kernel distinguishes: row counts around the
// 4-row lane group and the 256-row inline limit, at
// several worker caps, for forests and GBDTs.
func TestCompiledScoreAllLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const feats = 5
	forest := laneForest(t, rng, feats)
	model, err := FitGBDT(noisyDataset(rng, 300, feats, 2), GBDTConfig{NumTrees: 11, MaxDepth: 4, MinLeafSamples: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	all := probes(rng, 300, feats)
	for _, n := range []int{0, 1, 3, 4, 5, 63, 64, 65, 255, 256, 257, 300} {
		xs := all[:n]
		for _, w := range []int{1, 2, 8} {
			forest.SetWorkers(w)
			model.SetWorkers(w)
			fs, gs := forest.ScoreAll(xs), model.ScoreAll(xs)
			if len(fs) != n || len(gs) != n {
				t.Fatalf("rows=%d workers=%d: %d forest and %d GBDT scores", n, w, len(fs), len(gs))
			}
			for i, x := range xs {
				if want := treeAverage(forest, x)[1]; math.Float64bits(fs[i]) != math.Float64bits(want) {
					t.Fatalf("rows=%d workers=%d: forest row %d = %v, want %v", n, w, i, fs[i], want)
				}
				if want := roundSum(model, x); math.Float64bits(gs[i]) != math.Float64bits(want) {
					t.Fatalf("rows=%d workers=%d: GBDT row %d = %v, want %v", n, w, i, gs[i], want)
				}
			}
		}
	}
}

// TestCompiledLaneGroups: forests of 1 to 9 trees — a partial last group
// of one to three lanes, and bare-leaf roots among the walks — score every
// path bit-identically to the tree-order reference.
func TestCompiledLaneGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const feats = 4
	full := laneForest(t, rng, feats)
	xs := probes(rng, 70, feats)
	for k := 1; k <= len(full.roots); k++ {
		sub := *full
		sub.roots = full.roots[:k]
		forest := &sub
		cf := forest
		batch := cf.ScoreAll(xs)
		buf := make([]float64, 2)
		for i, x := range xs {
			want := treeAverage(forest, x)
			cf.PredictProbaInto(x, buf)
			for c := range want {
				if math.Float64bits(buf[c]) != math.Float64bits(want[c]) {
					t.Fatalf("%d trees: PredictProbaInto[%d] = %v, want %v", k, c, buf[c], want[c])
				}
			}
			if got := cf.Score(x); math.Float64bits(got) != math.Float64bits(want[1]) {
				t.Fatalf("%d trees: Score = %v, want %v", k, got, want[1])
			}
			if math.Float64bits(batch[i]) != math.Float64bits(want[1]) {
				t.Fatalf("%d trees: ScoreAll[%d] = %v, want %v", k, i, batch[i], want[1])
			}
		}
	}
}

// TestCompiledAllLeavesReadsNoCell: an ensemble of bare leaves scores an
// empty row without reading it, as the plain walk does — the leaf mask
// must not turn "at a leaf" into a read of cell 0.
func TestCompiledAllLeavesReadsNoCell(t *testing.T) {
	forest := &Forest{numClasses: 2}
	model := &GBDT{bias: 0.25, lr: 0.1}
	for _, p := range []float64{0.2, 0.7, 0.4, 0.9, 0.35} {
		addLeafTree(forest, p)
		r := model.alloc(1)
		model.setLeaf(r, p-0.5, 0)
		model.roots = append(model.roots, r)
	}
	cf, cg := forest, model
	empty := []float64{}
	if got, want := cf.Score(empty), treeAverage(forest, empty)[1]; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("forest Score = %v, want %v", got, want)
	}
	if got, want := cg.Score(empty), roundSum(model, empty); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("GBDT Score = %v, want %v", got, want)
	}
	rows := [][]float64{nil, {}, nil, {}, nil}
	for i, got := range cf.ScoreAll(rows) {
		if want := treeAverage(forest, nil)[1]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("forest ScoreAll[%d] = %v, want %v", i, got, want)
		}
	}
	for i, got := range cg.ScoreAll(rows) {
		if want := roundSum(model, nil); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("GBDT ScoreAll[%d] = %v, want %v", i, got, want)
		}
	}
}
