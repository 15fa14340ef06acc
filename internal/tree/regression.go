package tree

import (
	"errors"
	"math"
	"math/rand"
)

// RegressionTree is a CART regression tree with variance-reduction splits.
// It is the base learner for GBDT; leaf values are set by the boosting loss
// via a LeafValue callback.
type RegressionTree struct {
	root *node
}

// RegressionConfig configures regression-tree growth.
type RegressionConfig struct {
	// MinLeafSamples is the minimum instances per leaf.
	MinLeafSamples int
	// MaxDepth bounds depth (0 = unlimited); GBDT uses shallow trees.
	MaxDepth int
	// FeaturesPerSplit as in Config: 0 all, -1 √N, k>0 exactly k.
	FeaturesPerSplit int
	// Seed drives feature subsampling.
	Seed int64
	// MaxBins enables histogram split search as in Config.MaxBins (0 =
	// exact; clamped to 255).
	MaxBins int
	// LeafValue computes a leaf's output from the indices it holds; nil
	// means the mean of targets.
	LeafValue func(idx []int) float64
}

func (c RegressionConfig) withDefaults(targets, weights []float64) RegressionConfig {
	if c.MinLeafSamples == 0 {
		c.MinLeafSamples = 20
	}
	c.MaxBins = clampBins(c.MaxBins)
	if c.LeafValue == nil {
		c.LeafValue = func(idx []int) float64 {
			s, ws := 0.0, 0.0
			for _, i := range idx {
				s += targets[i] * weights[i]
				ws += weights[i]
			}
			if ws == 0 {
				return 0
			}
			return s / ws
		}
	}
	return c
}

// FitRegressionTree fits targets (one per row of x) with weighted
// squared-error splits on the columnar backend.
func FitRegressionTree(x [][]float64, targets, weights []float64, cfg RegressionConfig) (*RegressionTree, error) {
	if len(x) == 0 {
		return nil, errors.New("tree: empty regression dataset")
	}
	if len(targets) != len(x) {
		return nil, errors.New("tree: targets length mismatch")
	}
	if len(x) > math.MaxInt32 {
		return nil, errors.New("tree: dataset exceeds 2^31 rows")
	}
	if weights == nil {
		weights = unitWeights(len(x))
	}
	cfg = cfg.withDefaults(targets, weights)
	cd := newColData(x, len(x[0]), cfg.MaxBins)
	return fitRegressionTreeOnData(cd, targets, weights, cfg), nil
}

// fitRegressionTreeOnData grows one regression tree over a prebuilt
// columnar view; cfg must already have defaults applied. GBDT calls this
// once per boosting round, reusing the presort/bins across all rounds.
func fitRegressionTreeOnData(cd *colData, targets, weights []float64, cfg RegressionConfig) *RegressionTree {
	g := &colRegGrower{
		lay: newLayout(cd),
		t:   targets,
		w:   weights,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	if cd.binUpper != nil {
		g.histSum = make([]float64, cfg.MaxBins)
		g.histW = make([]float64, cfg.MaxBins)
		g.histCnt = make([]int, cfg.MaxBins)
	}
	return &RegressionTree{root: g.grow(0, cd.numRows, 0)}
}

func unitWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Predict returns the tree's value for one instance. It is the reference
// pointer walk the compiled GBDT is tested against.
func (t *RegressionTree) Predict(x []float64) float64 {
	nd := t.root
	for !nd.isLeaf() {
		if x[nd.feature] <= nd.threshold {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	return nd.value
}

// colRegGrower grows one regression tree over a colLayout; like colGrower,
// node splitting works on [start, end) segments and reuses the grower's
// histogram buffers, so it allocates only at leaves (the LeafValue callback
// receives a materialized index slice).
type colRegGrower struct {
	lay *colLayout
	t   []float64
	w   []float64
	cfg RegressionConfig
	rng *rand.Rand

	histSum []float64 // histogram mode: per-bin sum of w·t
	histW   []float64 // histogram mode: per-bin sum of w
	histCnt []int     // histogram mode: per-bin unweighted count
}

func (g *colRegGrower) grow(start, end, depth int) *node {
	n := end - start
	leaf := func() *node {
		return &node{value: g.cfg.LeafValue(g.lay.idxSlice(start, end)), n: n}
	}
	if n < 2*g.cfg.MinLeafSamples || (g.cfg.MaxDepth > 0 && depth == g.cfg.MaxDepth) {
		return leaf()
	}
	best := g.bestSplit(start, end)
	if best.feature < 0 {
		return leaf()
	}
	nLeft, _ := g.lay.markSplit(start, end, best.feature, best.threshold)
	if nLeft < g.cfg.MinLeafSamples || n-nLeft < g.cfg.MinLeafSamples {
		return leaf()
	}
	g.lay.commitSplit(start, end)
	nd := &node{
		feature:   best.feature,
		threshold: best.threshold,
		n:         n,
	}
	nd.left = g.grow(start, start+nLeft, depth+1)
	nd.right = g.grow(start+nLeft, end, depth+1)
	return nd
}

// bestSplit maximizes weighted SSE reduction, which for fixed parent SSE is
// equivalent to maximizing sumL²/wL + sumR²/wR.
func (g *colRegGrower) bestSplit(start, end int) split {
	features := sampleSplitFeatures(g.rng, len(g.lay.cols), g.cfg.FeaturesPerSplit)

	totalSum, totalW := 0.0, 0.0
	for _, i := range g.lay.rows[start:end] {
		totalSum += g.t[i] * g.w[i]
		totalW += g.w[i]
	}
	baseScore := 0.0
	if totalW > 0 {
		baseScore = totalSum * totalSum / totalW
	}

	best := split{feature: -1}
	for _, f := range features {
		if g.lay.orders != nil {
			g.scanExact(f, start, end, totalSum, totalW, baseScore, &best)
		} else {
			g.scanHist(f, start, end, totalSum, totalW, baseScore, &best)
		}
	}
	return best
}

func (g *colRegGrower) scanExact(f, start, end int, totalSum, totalW, baseScore float64, best *split) {
	ord := g.lay.orders[f][start:end]
	col := g.lay.cols[f]
	minLeaf := g.cfg.MinLeafSamples
	leftSum, leftW := 0.0, 0.0
	for pos := 0; pos < len(ord)-1; pos++ {
		i := ord[pos]
		leftSum += g.t[i] * g.w[i]
		leftW += g.w[i]
		cur, next := col[i], col[ord[pos+1]]
		if cur == next {
			continue
		}
		nLeft := pos + 1
		nRight := len(ord) - nLeft
		if nLeft < minLeaf || nRight < minLeaf {
			continue
		}
		rightSum, rightW := totalSum-leftSum, totalW-leftW
		if leftW <= 0 || rightW <= 0 {
			continue
		}
		gain := leftSum*leftSum/leftW + rightSum*rightSum/rightW - baseScore
		if gain > best.improvement {
			*best = split{feature: f, threshold: (cur + next) / 2, improvement: gain}
		}
	}
}

func (g *colRegGrower) scanHist(f, start, end int, totalSum, totalW, baseScore float64, best *split) {
	upper := g.lay.binUpper[f]
	if len(upper) == 0 {
		return
	}
	nb := len(upper) + 1
	hs := g.histSum[:nb]
	hw := g.histW[:nb]
	hc := g.histCnt[:nb]
	for b := 0; b < nb; b++ {
		hs[b], hw[b], hc[b] = 0, 0, 0
	}
	bins := g.lay.binIdx[f]
	for _, i := range g.lay.rows[start:end] {
		b := int(bins[i])
		hs[b] += g.t[i] * g.w[i]
		hw[b] += g.w[i]
		hc[b]++
	}
	minLeaf := g.cfg.MinLeafSamples
	total := end - start
	leftSum, leftW := 0.0, 0.0
	nLeft := 0
	for b := 0; b < nb-1; b++ {
		leftSum += hs[b]
		leftW += hw[b]
		nLeft += hc[b]
		if hc[b] == 0 {
			continue
		}
		nRight := total - nLeft
		if nLeft < minLeaf || nRight < minLeaf {
			continue
		}
		rightSum, rightW := totalSum-leftSum, totalW-leftW
		if leftW <= 0 || rightW <= 0 {
			continue
		}
		gain := leftSum*leftSum/leftW + rightSum*rightSum/rightW - baseScore
		if gain > best.improvement {
			*best = split{feature: f, threshold: upper[b], improvement: gain}
		}
	}
}
