// Package linear implements L2-regularized logistic regression — the
// repository's LIBLINEAR substitute for the Figure 9 classifier comparison
// and a building block for downstream users. Training uses mini-batch
// stochastic gradient descent with the paper's fixed 0.1 learning rate by
// default; features should be standardized or binarized first (the paper
// discretizes continuous features into binary indicators for linear models —
// see Binarizer).
package linear

import (
	"errors"
	"math"
	"math/rand"

	"telcochurn/internal/dataset"
)

// Config holds logistic-regression hyperparameters.
type Config struct {
	// LearningRate is the SGD step size (paper: 0.1).
	LearningRate float64
	// Lambda is the L2 regularization strength (LIBLINEAR's 1/C per
	// instance). Default 1e-4.
	Lambda float64
	// Epochs is the number of passes over the data. Default 30.
	Epochs int
	// BatchSize is the mini-batch size. Default 32.
	BatchSize int
	// Seed drives shuffling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	if c.Lambda == 0 {
		c.Lambda = 1e-4
	}
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	return c
}

// Model is a trained binary logistic-regression classifier.
type Model struct {
	Bias    float64
	Weights []float64
}

// Fit trains on 0/1 labels, honoring instance weights.
func Fit(d *dataset.Dataset, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.NumInstances()
	if n == 0 {
		return nil, errors.New("linear: empty dataset")
	}
	for _, y := range d.Y {
		if y != 0 && y != 1 {
			return nil, errors.New("linear: labels must be 0/1")
		}
	}
	nf := d.NumFeatures()
	m := &Model{Weights: make([]float64, nf)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(n)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		// Decaying step size keeps late epochs from oscillating.
		lr := cfg.LearningRate / (1 + float64(0.1*float64(epoch)))
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			gradW := make([]float64, nf)
			gradB := 0.0
			for _, i := range order[start:end] {
				x := d.X[i]
				err := float64((sigmoid(m.Bias+dot(m.Weights, x)) - float64(d.Y[i])) * d.Weight(i))
				for j, v := range x {
					gradW[j] += float64(err * v)
				}
				gradB += err
			}
			scale := lr / float64(end-start)
			for j := range m.Weights {
				m.Weights[j] -= float64(scale*gradW[j]) + float64(lr*cfg.Lambda*m.Weights[j])
			}
			m.Bias -= float64(scale * gradB)
		}
	}
	return m, nil
}

// Score returns P(y=1 | x).
func (m *Model) Score(x []float64) float64 {
	return sigmoid(m.Bias + dot(m.Weights, x))
}

// ScoreAll scores many instances.
func (m *Model) ScoreAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, xi := range x {
		out[i] = m.Score(xi)
	}
	return out
}

func dot(w, x []float64) float64 {
	s := 0.0
	for i, v := range w {
		s += float64(v * x[i])
	}
	return s
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }
