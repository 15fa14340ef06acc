// Package tree implements the paper's tree learners from scratch: CART
// decision trees with Gini impurity and weighted instances (Eqs. 5-6),
// random forests with bagging, √N feature subspaces and Gini feature
// importance (Section 4.2, Eqs. 4 and 7), and gradient boosted decision
// trees (GBDT) with binomial deviance for the Figure 9 comparison.
package tree

import (
	"errors"
	"math"

	"telcochurn/internal/dataset"
)

// Config holds the tree-growth hyperparameters shared by single trees,
// forests and GBDT base learners.
type Config struct {
	// MinLeafSamples is the paper's stopping rule: splitting stops when a
	// node holds fewer than this many instances (paper: 100, "to avoid
	// over-fitting"). Counted unweighted.
	MinLeafSamples int
	// MaxDepth bounds tree depth; 0 means unlimited (the paper relies on
	// MinLeafSamples alone).
	MaxDepth int
	// FeaturesPerSplit is the number of features sampled at each node; 0
	// means all features (single CART), -1 means √N (random forest default).
	FeaturesPerSplit int
	// Seed drives the feature subsampling and bootstrap RNG.
	Seed int64
	// MaxBins switches split search to histogram mode: each feature is
	// quantile-binned into at most MaxBins buckets once per training matrix
	// and nodes scan bin boundaries instead of every distinct value. 0 (the
	// default) keeps exact splits, which are bit-identical to the legacy
	// row-major scan; values above 255 are clamped (bin ids are bytes).
	MaxBins int
}

func (c Config) withDefaults() Config {
	if c.MinLeafSamples == 0 {
		c.MinLeafSamples = 100
	}
	c.MaxBins = clampBins(c.MaxBins)
	return c
}

// Gini computes the Gini index of Eq. (6), 1 - sum_c p_c^2, from weighted
// class masses.
func Gini(classMass []float64) float64 {
	total := 0.0
	for _, m := range classMass {
		total += m
	}
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, m := range classMass {
		p := m / total
		g -= float64(p * p)
	}
	return g
}

// FitTree trains a single CART classification tree on the dataset with the
// paper's Gini splitting (Eqs. 5-6), honoring per-instance weights, and
// returns it as a one-tree Forest. Split search runs on the columnar
// backend (see columnar.go): exact presorted scans by default, histogram
// scans when cfg.MaxBins > 0.
func FitTree(d *dataset.Dataset, cfg Config) (*Forest, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.NumInstances() == 0 {
		return nil, errors.New("tree: empty dataset")
	}
	if d.NumInstances() > math.MaxInt32 {
		return nil, errors.New("tree: dataset exceeds 2^31 rows")
	}
	numClasses := d.NumClasses()
	if numClasses < 2 {
		numClasses = 2
	}
	cfg = cfg.withDefaults()
	cd := newColData(d.X, d.NumFeatures(), cfg.MaxBins)
	f := newColGrower(newLayout(cd), d.Y, weightsOf(d), numClasses, d.NumFeatures(), cfg).fit(d.NumInstances(), &Forest{})
	f.features = d.FeatureNames
	f.importance = normalizedSum(f.treeImp, d.NumFeatures())
	return f, nil
}

func weightsOf(d *dataset.Dataset) []float64 {
	if d.W != nil {
		return d.W
	}
	w := make([]float64, d.NumInstances())
	for i := range w {
		w[i] = 1
	}
	return w
}

// split is one candidate cut: send x[feature] <= threshold left.
type split struct {
	feature     int
	threshold   float64
	improvement float64
}

// giniComplement computes Gini of (parent - left) without allocating.
func giniComplement(parent, left []float64, total float64) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for c := range parent {
		p := (parent[c] - left[c]) / total
		g -= float64(p * p)
	}
	return g
}

// normalize writes the class distribution of mass into probs.
func normalize(probs, mass []float64) {
	total := 0.0
	for _, m := range mass {
		total += m
	}
	if total == 0 {
		for c := range probs {
			probs[c] = 1 / float64(len(mass))
		}
		return
	}
	for c, m := range mass {
		probs[c] = m / total
	}
}

func isPure(mass []float64) bool {
	nonZero := 0
	for _, m := range mass {
		if m > 0 {
			nonZero++
		}
	}
	return nonZero <= 1
}
