package tree

// The pre-columnar growers, kept (modulo legacy* renames and their own
// pointer node type) as test helpers: exact_test.go asserts that the
// columnar exact path, writing flat node arrays, reproduces their pointer
// trees node for node. They re-sort every sampled feature at every node
// over the row-major matrix — the O(depth · √F · n log n) behavior the
// columnar backend replaced.

import (
	"math"
	"math/rand"
	"sort"

	"telcochurn/internal/dataset"
)

// legacyNode is one pointer-tree node; leaves have nil children and a
// class distribution (classification) or value (regression).
type legacyNode struct {
	feature   int
	threshold float64
	left      *legacyNode
	right     *legacyNode
	probs     []float64 // class distribution, classification trees
	value     float64   // leaf value, regression trees
	n         int       // training instances that reached this node
}

func (nd *legacyNode) isLeaf() bool { return nd.left == nil }

// legacyTree is a legacy classification fit: its root and raw Gini
// importance.
type legacyTree struct {
	root       *legacyNode
	importance []float64
}

type legacyGrower struct {
	x          [][]float64
	y          []int
	w          []float64
	numClasses int
	cfg        Config
	rng        *rand.Rand
	importance []float64
}

// legacyFitTree mirrors the old fitTreeWithClasses: caller-fixed class
// count, defaults applied here.
func legacyFitTree(d *dataset.Dataset, cfg Config, numClasses int) *legacyTree {
	cfg = cfg.withDefaults()
	g := &legacyGrower{
		x:          d.X,
		y:          d.Y,
		w:          weightsOf(d),
		numClasses: numClasses,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		importance: make([]float64, d.NumFeatures()),
	}
	idx := make([]int, d.NumInstances())
	for i := range idx {
		idx[i] = i
	}
	root := g.grow(idx, 0)
	return &legacyTree{root: root, importance: g.importance}
}

func legacyNormalize(mass []float64) []float64 {
	probs := make([]float64, len(mass))
	normalize(probs, mass)
	return probs
}

func (g *legacyGrower) grow(idx []int, depth int) *legacyNode {
	mass := make([]float64, g.numClasses)
	for _, i := range idx {
		mass[g.y[i]] += g.w[i]
	}
	leaf := func() *legacyNode {
		return &legacyNode{probs: legacyNormalize(mass), n: len(idx)}
	}
	if len(idx) < 2*g.cfg.MinLeafSamples || depth == g.cfg.MaxDepth && g.cfg.MaxDepth > 0 {
		return leaf()
	}
	if isPure(mass) {
		return leaf()
	}

	best := g.bestSplit(idx, mass)
	if best.feature < 0 {
		return leaf()
	}
	leftIdx, rightIdx := legacyPartition(g.x, idx, best.feature, best.threshold)
	if len(leftIdx) < g.cfg.MinLeafSamples || len(rightIdx) < g.cfg.MinLeafSamples {
		return leaf()
	}
	g.importance[best.feature] += best.improvement
	return &legacyNode{
		feature:   best.feature,
		threshold: best.threshold,
		left:      g.grow(leftIdx, depth+1),
		right:     g.grow(rightIdx, depth+1),
		n:         len(idx),
		probs:     legacyNormalize(mass),
	}
}

func (g *legacyGrower) bestSplit(idx []int, parentMass []float64) split {
	numFeat := len(g.x[0])
	features := g.sampleFeatures(numFeat)
	parentGini := Gini(parentMass)
	parentTotal := 0.0
	for _, m := range parentMass {
		parentTotal += m
	}

	best := split{feature: -1}
	vals := make([]float64, len(idx))
	order := make([]int, len(idx))
	leftMass := make([]float64, g.numClasses)

	for _, f := range features {
		for j, i := range idx {
			vals[j] = g.x[i][f]
			order[j] = j
		}
		sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })

		for c := range leftMass {
			leftMass[c] = 0
		}
		leftTotal := 0.0
		for pos := 0; pos < len(order)-1; pos++ {
			i := idx[order[pos]]
			leftMass[g.y[i]] += g.w[i]
			leftTotal += g.w[i]
			cur, next := vals[order[pos]], vals[order[pos+1]]
			if cur == next {
				continue
			}
			nLeft := pos + 1
			nRight := len(order) - nLeft
			if nLeft < g.cfg.MinLeafSamples || nRight < g.cfg.MinLeafSamples {
				continue
			}
			q := leftTotal / parentTotal
			rightGini := giniComplement(parentMass, leftMass, parentTotal-leftTotal)
			improvement := parentGini - float64(q*Gini(leftMass)) - float64((1-q)*rightGini)
			if improvement > best.improvement {
				best = split{feature: f, threshold: (cur + next) / 2, improvement: improvement}
			}
		}
	}
	return best
}

func (g *legacyGrower) sampleFeatures(numFeat int) []int {
	k := g.cfg.FeaturesPerSplit
	switch {
	case k == 0 || k >= numFeat:
		all := make([]int, numFeat)
		for i := range all {
			all[i] = i
		}
		return all
	case k == -1:
		k = int(math.Sqrt(float64(numFeat)))
		if k < 1 {
			k = 1
		}
	}
	perm := g.rng.Perm(numFeat)
	return perm[:k]
}

func legacyPartition(x [][]float64, idx []int, feature int, threshold float64) (left, right []int) {
	for _, i := range idx {
		if x[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return left, right
}

type legacyRegGrower struct {
	x   [][]float64
	t   []float64
	w   []float64
	cfg regConfig
	rng *rand.Rand
}

func unitWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// regDefaults fills in what a regression fit on its own needs: unit
// weights, a min-leaf of 20 and the weighted mean of targets as the leaf
// value.
func regDefaults(targets, weights []float64, cfg regConfig) ([]float64, regConfig) {
	if cfg.MinLeafSamples == 0 {
		cfg.MinLeafSamples = 20
	}
	cfg.MaxBins = clampBins(cfg.MaxBins)
	if weights == nil {
		weights = unitWeights(len(targets))
	}
	cfg.LeafValue = func(idx []int) float64 {
		s, ws := 0.0, 0.0
		for _, i := range idx {
			s += float64(targets[i] * weights[i])
			ws += weights[i]
		}
		if ws == 0 {
			return 0
		}
		return s / ws
	}
	return weights, cfg
}

// fitRegressionTree grows one regression tree on x with regDefaults, the
// columnar counterpart of legacyFitRegressionTree.
func fitRegressionTree(x [][]float64, targets, weights []float64, cfg regConfig) *nodes {
	weights, cfg = regDefaults(targets, weights, cfg)
	out := &nodes{}
	fitRegressionTreeOnData(newColData(x, len(x[0]), cfg.MaxBins), targets, weights, cfg, out)
	return out
}

func legacyFitRegressionTree(x [][]float64, targets, weights []float64, cfg regConfig) *legacyNode {
	weights, cfg = regDefaults(targets, weights, cfg)
	g := &legacyRegGrower{
		x:   x,
		t:   targets,
		w:   weights,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	return g.grow(idx, 0)
}

func (g *legacyRegGrower) grow(idx []int, depth int) *legacyNode {
	leaf := func() *legacyNode {
		return &legacyNode{value: g.cfg.LeafValue(idx), n: len(idx)}
	}
	if len(idx) < 2*g.cfg.MinLeafSamples || (g.cfg.MaxDepth > 0 && depth == g.cfg.MaxDepth) {
		return leaf()
	}
	best := g.bestSplit(idx)
	if best.feature < 0 {
		return leaf()
	}
	leftIdx, rightIdx := legacyPartition(g.x, idx, best.feature, best.threshold)
	if len(leftIdx) < g.cfg.MinLeafSamples || len(rightIdx) < g.cfg.MinLeafSamples {
		return leaf()
	}
	return &legacyNode{
		feature:   best.feature,
		threshold: best.threshold,
		left:      g.grow(leftIdx, depth+1),
		right:     g.grow(rightIdx, depth+1),
		n:         len(idx),
	}
}

func (g *legacyRegGrower) bestSplit(idx []int) split {
	numFeat := len(g.x[0])
	features := sampleSplitFeatures(g.rng, numFeat, g.cfg.FeaturesPerSplit)

	totalSum, totalW := 0.0, 0.0
	for _, i := range idx {
		totalSum += float64(g.t[i] * g.w[i])
		totalW += g.w[i]
	}
	baseScore := 0.0
	if totalW > 0 {
		baseScore = totalSum * totalSum / totalW
	}

	best := split{feature: -1}
	vals := make([]float64, len(idx))
	order := make([]int, len(idx))
	for _, f := range features {
		for j, i := range idx {
			vals[j] = g.x[i][f]
			order[j] = j
		}
		sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })

		leftSum, leftW := 0.0, 0.0
		for pos := 0; pos < len(order)-1; pos++ {
			i := idx[order[pos]]
			leftSum += float64(g.t[i] * g.w[i])
			leftW += g.w[i]
			cur, next := vals[order[pos]], vals[order[pos+1]]
			if cur == next {
				continue
			}
			nLeft := pos + 1
			nRight := len(order) - nLeft
			if nLeft < g.cfg.MinLeafSamples || nRight < g.cfg.MinLeafSamples {
				continue
			}
			rightSum, rightW := totalSum-leftSum, totalW-leftW
			if leftW <= 0 || rightW <= 0 {
				continue
			}
			gain := leftSum*leftSum/leftW + rightSum*rightSum/rightW - baseScore
			if gain > best.improvement {
				best = split{feature: f, threshold: (cur + next) / 2, improvement: gain}
			}
		}
	}
	return best
}
