// Package fm implements factorization machines (Rendle's LIBFM), used by the
// paper in two roles: as one of the Figure 9 classifiers, and as the
// second-order feature selector of Section 4.1.4 — Eq. (3)'s pairwise weight
// ⟨v_i, v_j⟩ ranks feature pairs, and the top-K pairs become the F9 features
// x_i·x_j of the wide table.
package fm

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"telcochurn/internal/dataset"
)

// Config holds FM hyperparameters.
type Config struct {
	// K is the latent factor dimensionality of v_i (default 8).
	K int
	// LearningRate is the SGD step (paper: 0.1).
	LearningRate float64
	// Lambda is the L2 regularization (default 1e-4).
	Lambda float64
	// Epochs is the number of SGD passes (default 20).
	Epochs int
	// Seed drives initialization and shuffling.
	Seed int64
	// InitStd is the latent-factor initialization scale (default 0.05).
	InitStd float64
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 8
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	if c.Lambda == 0 {
		c.Lambda = 1e-4
	}
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	if c.InitStd == 0 {
		c.InitStd = 0.05
	}
	return c
}

// Model is a trained factorization machine for binary classification:
//
//	y = σ( w0 + Σ w_i x_i + Σ_{i<j} ⟨v_i, v_j⟩ x_i x_j )
//
// Every product is rounded before it is added (float64(...)), so a host
// that fuses multiply-adds computes the same bits as one that does not.
type Model struct {
	W0 float64
	W  []float64
	// K is the latent factor dimensionality.
	K int
	// V holds the latent vectors of Eq. 3 row by row: v_i is
	// V[i*K : (i+1)*K], one row per entry of W.
	V []float64
}

// row returns v_i, capped at its own K entries.
func (m *Model) row(i int) []float64 { return m.V[i*m.K : (i+1)*m.K : (i+1)*m.K] }

// Fit trains the FM with SGD on logistic loss. Labels must be 0/1; instance
// weights scale gradients.
func Fit(d *dataset.Dataset, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.NumInstances()
	if n == 0 {
		return nil, errors.New("fm: empty dataset")
	}
	for _, y := range d.Y {
		if y != 0 && y != 1 {
			return nil, errors.New("fm: labels must be 0/1")
		}
	}
	nf, K := d.NumFeatures(), cfg.K
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{W: make([]float64, nf), K: K, V: make([]float64, nf*K)}
	for i := range m.V {
		m.V[i] = rng.NormFloat64() * cfg.InitStd
	}

	// AdaGrad per-coordinate steps: instance weights (the Weighted Instance
	// imbalance method multiplies gradients by ~n/2·n_pos) and one-hot
	// sparsity make plain SGD oscillate; adaptive steps keep FM competitive
	// with the batched logistic-regression optimizer (Section 5.8's "most
	// scalable classifiers achieve almost the same accuracy").
	const adaEps = 1e-8
	hW0 := adaEps
	hW := make([]float64, nf)
	hV := make([]float64, nf*K) // laid out as V

	order := rng.Perm(n)
	sum := make([]float64, K) // Σ_i v_ik x_i, reused per instance
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := cfg.LearningRate
		for _, i := range order {
			x := d.X[i]
			pred := m.forward(x, sum)
			g := (sigmoid(pred) - float64(d.Y[i])) * d.Weight(i)

			hW0 += float64(g * g)
			m.W0 -= lr * g / math.Sqrt(hW0)
			for j, xj := range x {
				if xj == 0 {
					continue
				}
				gw := clip(g*xj) + float64(cfg.Lambda*m.W[j])
				hW[j] += float64(gw * gw)
				m.W[j] -= lr * gw / math.Sqrt(hW[j]+adaEps)
				// Resliced to one row, so the loop runs without bounds checks.
				vj := m.row(j)
				hj := hV[j*K : (j+1)*K]
				hj, s := hj[:len(vj)], sum[:len(vj)]
				for k, v := range vj {
					gv := clip(g*xj*(s[k]-float64(v*xj))) + float64(cfg.Lambda*v)
					hj[k] += float64(gv * gv)
					vj[k] = v - lr*gv/math.Sqrt(hj[k]+adaEps)
				}
			}
		}
	}
	return m, nil
}

// forward computes the raw FM output using the O(K·nnz) identity
// Σ_{i<j}⟨v_i,v_j⟩x_i x_j = ½ Σ_k [ (Σ_i v_ik x_i)² - Σ_i v_ik² x_i² ].
// sum is scratch of length K and holds Σ_i v_ik x_i on return.
func (m *Model) forward(x []float64, sum []float64) float64 {
	pred := m.W0
	clear(sum)
	sumSq := 0.0
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		pred += float64(m.W[j] * xj)
		vj := m.row(j)
		s := sum[:len(vj)]
		for k, v := range vj {
			p := float64(v * xj)
			s[k] += p
			sumSq += float64(p * p)
		}
	}
	pair := 0.0
	for _, sk := range sum {
		pair += float64(sk * sk)
	}
	pred += float64(0.5 * (pair - sumSq))
	return pred
}

// Score returns P(y=1 | x).
func (m *Model) Score(x []float64) float64 {
	sum := make([]float64, m.K)
	return sigmoid(m.forward(x, sum))
}

// ScoreAll scores many instances.
func (m *Model) ScoreAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	sum := make([]float64, m.K)
	for i, xi := range x {
		out[i] = sigmoid(m.forward(xi, sum))
	}
	return out
}

// PairWeight returns Eq. (3)'s interaction weight ⟨v_i, v_j⟩.
func (m *Model) PairWeight(i, j int) float64 {
	vi, vj := m.row(i), m.row(j)
	vj = vj[:len(vi)]
	s := 0.0
	for k, v := range vi {
		s += float64(v * vj[k])
	}
	return s
}

// Pair identifies one second-order feature x_i·x_j with its learned weight.
type Pair struct {
	I, J   int
	Weight float64
}

// TopPairs ranks all feature pairs by |⟨v_i, v_j⟩| descending and returns
// the top K — the paper's selection of the 20 most useful second-order
// features (Section 4.1.4).
func (m *Model) TopPairs(k int) []Pair {
	nf := len(m.W)
	pairs := make([]Pair, 0, nf*(nf-1)/2)
	for i := 0; i < nf; i++ {
		for j := i + 1; j < nf; j++ {
			pairs = append(pairs, Pair{I: i, J: j, Weight: m.PairWeight(i, j)})
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		wa, wb := math.Abs(pairs[a].Weight), math.Abs(pairs[b].Weight)
		if wa != wb {
			return wa > wb
		}
		if pairs[a].I != pairs[b].I {
			return pairs[a].I < pairs[b].I
		}
		return pairs[a].J < pairs[b].J
	})
	if k > len(pairs) {
		k = len(pairs)
	}
	return pairs[:k]
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// clip bounds a gradient term so dense standardized inputs cannot blow the
// latent factors up (the classic FM-on-dense-data divergence).
func clip(g float64) float64 {
	const bound = 10
	if g > bound {
		return bound
	}
	if g < -bound {
		return -bound
	}
	return g
}
