package core

import (
	"telcochurn/internal/dataset"
	"telcochurn/internal/fm"
	"telcochurn/internal/linear"
	"telcochurn/internal/tree"
)

// Classifier is the pluggable scoring model of the pipeline. Fit trains on a
// labeled dataset; ScoreAll returns churn likelihoods for feature rows.
type Classifier interface {
	Fit(d *dataset.Dataset) error
	ScoreAll(x [][]float64) []float64
	Name() string
}

// SingleScorer is the synchronous single-row fast path a serving layer may
// use instead of batching through ScoreAll. Score must be safe for
// concurrent use and bit-identical to ScoreAll([][]float64{x})[0]. The tree
// families (RF, GBDT) score through compiled flat ensembles and allocate
// nothing; the binarizing families (LIBLINEAR, LIBFM) allocate one
// transformed row per call.
type SingleScorer interface {
	Score(x []float64) float64
}

// RFClassifier wraps the random forest — the paper's deployed choice.
type RFClassifier struct {
	Config   tree.ForestConfig
	forest   *tree.Forest
	compiled *tree.CompiledForest // flat SoA ensemble for the serving path
}

// Fit implements Classifier.
func (c *RFClassifier) Fit(d *dataset.Dataset) error {
	f, err := tree.FitForest(d, c.Config)
	if err != nil {
		return err
	}
	c.forest = f
	c.compiled = f.Compile()
	return nil
}

// ScoreAll implements Classifier through the compiled ensemble, which Fit
// and Load always set.
func (c *RFClassifier) ScoreAll(x [][]float64) []float64 { return c.compiled.ScoreAll(x) }

// Score implements SingleScorer without allocating.
func (c *RFClassifier) Score(x []float64) float64 { return c.compiled.Score(x) }

// Name implements Classifier.
func (c *RFClassifier) Name() string { return "RF" }

// Forest exposes the trained forest for feature importance (Table 4),
// attribution and persistence; scores come from Score / ScoreAll.
func (c *RFClassifier) Forest() *tree.Forest { return c.forest }

// GBDTClassifier wraps gradient boosted decision trees.
type GBDTClassifier struct {
	Config   tree.GBDTConfig
	model    *tree.GBDT
	compiled *tree.CompiledGBDT
}

// Fit implements Classifier.
func (c *GBDTClassifier) Fit(d *dataset.Dataset) error {
	m, err := tree.FitGBDT(d, c.Config)
	if err != nil {
		return err
	}
	c.model = m
	c.compiled = m.Compile()
	return nil
}

// ScoreAll implements Classifier through the compiled ensemble, like RF.
func (c *GBDTClassifier) ScoreAll(x [][]float64) []float64 { return c.compiled.ScoreAll(x) }

// Score implements SingleScorer without allocating.
func (c *GBDTClassifier) Score(x []float64) float64 { return c.compiled.Score(x) }

// Name implements Classifier.
func (c *GBDTClassifier) Name() string { return "GBDT" }

// LinearClassifier wraps L2 logistic regression (LIBLINEAR substitute) with
// the paper's quantile binarization of continuous features.
type LinearClassifier struct {
	Config  linear.Config
	Buckets int // quantile buckets per source feature (default 8)
	bin     *linear.Binarizer
	model   *linear.Model
}

// Fit implements Classifier.
func (c *LinearClassifier) Fit(d *dataset.Dataset) error {
	if c.Buckets == 0 {
		c.Buckets = 8
	}
	c.bin = linear.FitBinarizer(d, c.Buckets)
	m, err := linear.Fit(c.bin.Transform(d), c.Config)
	if err != nil {
		return err
	}
	c.model = m
	return nil
}

// ScoreAll implements Classifier.
func (c *LinearClassifier) ScoreAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = c.model.Score(c.bin.TransformRow(row))
	}
	return out
}

// Score implements SingleScorer (one binarized row allocated per call).
func (c *LinearClassifier) Score(x []float64) float64 {
	return c.model.Score(c.bin.TransformRow(x))
}

// Name implements Classifier.
func (c *LinearClassifier) Name() string { return "LIBLINEAR" }

// FMClassifier wraps a factorization machine (LIBFM substitute), also over
// binarized features per Section 5.8.
type FMClassifier struct {
	Config  fm.Config
	Buckets int
	bin     *linear.Binarizer
	model   *fm.Model
}

// Fit implements Classifier.
func (c *FMClassifier) Fit(d *dataset.Dataset) error {
	if c.Buckets == 0 {
		c.Buckets = 8
	}
	c.bin = linear.FitBinarizer(d, c.Buckets)
	m, err := fm.Fit(c.bin.Transform(d), c.Config)
	if err != nil {
		return err
	}
	c.model = m
	return nil
}

// ScoreAll implements Classifier.
func (c *FMClassifier) ScoreAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = c.model.Score(c.bin.TransformRow(row))
	}
	return out
}

// Score implements SingleScorer (one binarized row allocated per call).
func (c *FMClassifier) Score(x []float64) float64 {
	return c.model.Score(c.bin.TransformRow(x))
}

// Name implements Classifier.
func (c *FMClassifier) Name() string { return "LIBFM" }
