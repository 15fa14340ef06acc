package fm

import (
	"math"
	"math/rand"
	"testing"

	"telcochurn/internal/dataset"
)

// nestedModel is the FM with one slice per latent vector, the layout Model
// had before V became one flat array. fitNested and its forward pass are
// that layout's fit, kept as the reference the flat fit must reproduce bit
// for bit.
type nestedModel struct {
	W0 float64
	W  []float64
	V  [][]float64
}

func fitNested(d *dataset.Dataset, cfg Config) *nestedModel {
	cfg = cfg.withDefaults()
	n, nf := d.NumInstances(), d.NumFeatures()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &nestedModel{W: make([]float64, nf), V: make([][]float64, nf)}
	for i := range m.V {
		m.V[i] = make([]float64, cfg.K)
		for k := range m.V[i] {
			m.V[i][k] = rng.NormFloat64() * cfg.InitStd
		}
	}
	const adaEps = 1e-8
	hW0 := adaEps
	hW := make([]float64, nf)
	hV := make([][]float64, nf)
	for i := range hV {
		hV[i] = make([]float64, cfg.K)
	}
	order := rng.Perm(n)
	sum := make([]float64, cfg.K)
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
				vj, hj := m.V[j], hV[j]
				for k := 0; k < cfg.K; k++ {
					gv := clip(g*xj*(sum[k]-float64(vj[k]*xj))) + float64(cfg.Lambda*vj[k])
					hj[k] += float64(gv * gv)
					vj[k] -= lr * gv / math.Sqrt(hj[k]+adaEps)
				}
			}
		}
	}
	return m
}

func (m *nestedModel) forward(x []float64, sum []float64) float64 {
	pred := m.W0
	for k := range sum {
		sum[k] = 0
	}
	sumSq := 0.0
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		pred += float64(m.W[j] * xj)
		for k := range sum {
			s := float64(m.V[j][k] * xj)
			sum[k] += s
			sumSq += float64(s * s)
		}
	}
	pair := 0.0
	for k := range sum {
		pair += float64(sum[k] * sum[k])
	}
	return pred + float64(0.5*(pair-sumSq))
}

// sparseData is a wide, partly zero, imbalanced and instance-weighted set,
// the shape of the second-order selector's input.
func sparseData(n, nf int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, nf)
	for j := range names {
		names[j] = string(rune('a'+j%26)) + string(rune('0'+j/26))
	}
	d := dataset.New(names)
	for i := 0; i < n; i++ {
		row := make([]float64, nf)
		for j := range row {
			if rng.Float64() < 0.6 {
				row[j] = rng.NormFloat64() * 2
			}
		}
		y := 0
		if row[0]*row[1] > 0.5 {
			y = 1
		}
		d.Add(row, y)
	}
	d.W = make([]float64, n)
	for i := range d.W {
		d.W[i] = 1 + 3*float64(d.Y[i])
	}
	return d
}

// TestFlatFitMatchesNested: the flat-array fit, forward pass and scores
// are Float64bits-equal to the nested-slice reference.
func TestFlatFitMatchesNested(t *testing.T) {
	for _, tc := range []struct {
		n, nf int
		cfg   Config
	}{
		{300, 40, Config{Seed: 1, Epochs: 10}},
		{200, 13, Config{Seed: 7, Epochs: 6, K: 3, LearningRate: 0.02}},
		{150, 5, Config{Seed: 3, Epochs: 4, K: 1}},
	} {
		d := sparseData(tc.n, tc.nf, tc.cfg.Seed)
		got, err := Fit(d, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := fitNested(d, tc.cfg)
		same := func(what string, a, b float64) {
			t.Helper()
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%d×%d K %d: %s = %v, reference %v", tc.n, tc.nf, got.K, what, a, b)
			}
		}
		same("W0", got.W0, want.W0)
		for j := range want.W {
			same("W", got.W[j], want.W[j])
			for k, v := range want.V[j] {
				same("V", got.V[j*got.K+k], v)
			}
		}
		sum := make([]float64, got.K)
		for _, x := range d.X[:20] {
			same("Score", got.Score(x), sigmoid(want.forward(x, sum)))
		}
	}
}
