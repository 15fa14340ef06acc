package tree

import "math/rand"

// regConfig configures regression-tree growth, the GBDT base learner.
type regConfig struct {
	// MinLeafSamples is the minimum instances per leaf.
	MinLeafSamples int
	// MaxDepth bounds depth (0 = unlimited); GBDT uses shallow trees.
	MaxDepth int
	// FeaturesPerSplit as in Config: 0 all, -1 √N, k>0 exactly k.
	FeaturesPerSplit int
	// Seed drives feature subsampling.
	Seed int64
	// MaxBins enables histogram split search as in Config.MaxBins (0 =
	// exact); the caller clamps it.
	MaxBins int
	// LeafValue computes a leaf's output from the indices it holds.
	LeafValue func(idx []int) float64
}

// fitRegressionTreeOnData grows one regression tree over a prebuilt
// columnar view and appends it to out as a new root. cfg.LeafValue must be
// set. GBDT calls this once per boosting round, reusing the presort/bins
// across all rounds.
func fitRegressionTreeOnData(cd *colData, targets, weights []float64, cfg regConfig, out *nodes) {
	g := &colRegGrower{
		lay: newLayout(cd),
		t:   targets,
		w:   weights,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		out: out,
	}
	if cd.binUpper != nil {
		g.histSum = make([]float64, cfg.MaxBins)
		g.histW = make([]float64, cfg.MaxBins)
		g.histCnt = make([]int, cfg.MaxBins)
	}
	root := out.alloc(1)
	out.roots = append(out.roots, root)
	g.grow(root, 0, cd.numRows, 0)
}

// colRegGrower grows one regression tree over a colLayout into out, each
// leaf's value in its thrs slot; like colGrower, node splitting works on
// [start, end) segments and reuses the grower's histogram buffers, so it
// allocates only at leaves (the LeafValue callback receives a materialized
// index slice) and as the node arrays grow.
type colRegGrower struct {
	lay *colLayout
	t   []float64
	w   []float64
	cfg regConfig
	rng *rand.Rand
	out *nodes

	histSum []float64 // histogram mode: per-bin sum of w·t
	histW   []float64 // histogram mode: per-bin sum of w
	histCnt []int     // histogram mode: per-bin unweighted count
}

// grow writes the node over the layout's rows [start, end) into slot i,
// growing a split's children into two adjacent slots, left subtree first.
func (g *colRegGrower) grow(i int32, start, end, depth int) {
	n := end - start
	leaf := func() {
		g.out.setLeaf(i, g.cfg.LeafValue(g.lay.idxSlice(start, end)), n)
	}
	if n < 2*g.cfg.MinLeafSamples || (g.cfg.MaxDepth > 0 && depth == g.cfg.MaxDepth) {
		leaf()
		return
	}
	best := g.bestSplit(start, end)
	if best.feature < 0 {
		leaf()
		return
	}
	nLeft, _ := g.lay.markSplit(start, end, best.feature, best.threshold)
	if nLeft < g.cfg.MinLeafSamples || n-nLeft < g.cfg.MinLeafSamples {
		leaf()
		return
	}
	g.lay.commitSplit(start, end)
	c := g.out.alloc(2)
	g.out.setSplit(i, best.feature, best.threshold, c, n)
	g.grow(c, start, start+nLeft, depth+1)
	g.grow(c+1, start+nLeft, end, depth+1)
}

// bestSplit maximizes weighted SSE reduction, which for fixed parent SSE is
// equivalent to maximizing sumL²/wL + sumR²/wR.
func (g *colRegGrower) bestSplit(start, end int) split {
	features := sampleSplitFeatures(g.rng, len(g.lay.cols), g.cfg.FeaturesPerSplit)

	totalSum, totalW := 0.0, 0.0
	for _, i := range g.lay.rows[start:end] {
		totalSum += float64(g.t[i] * g.w[i])
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
		leftSum += float64(g.t[i] * g.w[i])
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
		hs[b] += float64(g.t[i] * g.w[i])
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
