package tree

import (
	"errors"
	"math"

	"telcochurn/internal/dataset"
)

// GBDTConfig configures gradient boosted decision trees for binary
// classification with binomial deviance. Defaults follow the paper's
// Figure 9 setup: learning rate 0.1, 500 trees (reduce for quick runs).
type GBDTConfig struct {
	// NumTrees is the number of boosting rounds. Default 500.
	NumTrees int
	// LearningRate is the paper's fixed 0.1.
	LearningRate float64
	// MaxDepth of each base tree. Default 4 (shallow learners).
	MaxDepth int
	// MinLeafSamples per base-tree leaf. Default 50.
	MinLeafSamples int
	// Seed for feature subsampling in base trees.
	Seed int64
	// MaxBins enables histogram split search in the base trees (see
	// Config.MaxBins); 0 keeps exact splits. Bins are computed once and
	// shared by all boosting rounds.
	MaxBins int
}

func (c GBDTConfig) withDefaults() GBDTConfig {
	if c.NumTrees == 0 {
		c.NumTrees = 500
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 4
	}
	if c.MinLeafSamples == 0 {
		c.MinLeafSamples = 50
	}
	return c
}

// GBDT is a trained boosted-trees binary classifier producing churn
// likelihoods via the logistic link: one regression tree per round in the
// flat node arrays (compiled.go), each leaf's value in its thrs slot.
type GBDT struct {
	nodes
	bias float64
	lr   float64
}

// FitGBDT trains gradient boosted trees minimizing binomial deviance.
// Labels must be 0/1. Instance weights scale both gradients and hessians,
// so the Weighted Instance imbalance method applies to GBDT too.
func FitGBDT(d *dataset.Dataset, cfg GBDTConfig) (*GBDT, error) {
	cfg = cfg.withDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.NumInstances()
	if n == 0 {
		return nil, errors.New("tree: empty dataset")
	}
	for _, y := range d.Y {
		if y != 0 && y != 1 {
			return nil, errors.New("tree: GBDT requires binary 0/1 labels")
		}
	}
	w := weightsOf(d)
	if n > math.MaxInt32 {
		return nil, errors.New("tree: dataset exceeds 2^31 rows")
	}

	// F0 is the weighted log-odds prior.
	model := &GBDT{bias: logOddsPrior(d.Y, w), lr: cfg.LearningRate}
	f := make([]float64, n)
	for i := range f {
		f[i] = model.bias
	}
	residual := make([]float64, n)

	// One columnar view (transpose + presort or bins) serves every boosting
	// round: only the targets change between rounds, never the feature
	// geometry, so each round pays a copy of the order arrays instead of a
	// per-node sort.
	baseCfg := regConfig{
		MinLeafSamples: cfg.MinLeafSamples,
		MaxDepth:       cfg.MaxDepth,
		MaxBins:        clampBins(cfg.MaxBins),
	}
	cd := newColData(d.X, d.NumFeatures(), baseCfg.MaxBins)

	for t := 0; t < cfg.NumTrees; t++ {
		// Negative gradient of binomial deviance: y - p.
		for i := range residual {
			residual[i] = float64(d.Y[i]) - sigmoid(f[i])
		}
		rc := baseCfg
		rc.Seed = cfg.Seed + int64(t)*2_000_003
		// LeafValue sees each training row exactly once, in the leaf that
		// holds it, which is the leaf a walk of its row reaches: the grower
		// partitions on the walker's `x <= threshold` (NaN going right in
		// both). So it also advances those rows' margins by the leaf's step,
		// and no row is walked through the finished tree.
		rc.LeafValue = func(idx []int) float64 {
			v := newtonStep(idx, f, residual, w)
			for _, i := range idx {
				f[i] += float64(cfg.LearningRate * v)
			}
			return v
		}
		fitRegressionTreeOnData(cd, residual, w, rc, &model.nodes)
	}
	return model, nil
}

// logOddsPrior is the weighted log-odds of the positive class, clamped away
// from ±Inf.
func logOddsPrior(y []int, w []float64) float64 {
	posW, totW := 0.0, 0.0
	for i, label := range y {
		if label == 1 {
			posW += w[i]
		}
		totW += w[i]
	}
	p0 := clampProb(posW / totW)
	return math.Log(p0 / (1 - p0))
}

// newtonStep is a leaf's binomial-deviance Newton step over the rows idx at
// margins f, sum w(y-p) / sum w·p(1-p), clipped to ±4 for numerical
// stability.
func newtonStep(idx []int, f, residual, w []float64) float64 {
	num, den := 0.0, 0.0
	for _, i := range idx {
		p := sigmoid(f[i])
		num += float64(w[i] * residual[i])
		den += float64(w[i] * p * (1 - p))
	}
	if den < 1e-12 {
		return 0
	}
	v := num / den
	if v > 4 {
		v = 4
	} else if v < -4 {
		v = -4
	}
	return v
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func clampProb(p float64) float64 {
	if p < 1e-6 {
		return 1e-6
	}
	if p > 1-1e-6 {
		return 1 - 1e-6
	}
	return p
}
