package fm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestForwardMatchesBruteForce: the O(K·n) sum-of-squares identity must
// equal the O(n²) direct pairwise expansion of Eq. (3).
func TestForwardMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nf := 2 + rng.Intn(10)
		k := 1 + rng.Intn(5)
		m := &Model{
			W0: rng.NormFloat64(),
			W:  make([]float64, nf),
			K:  k,
			V:  make([]float64, nf*k),
		}
		for j := range m.W {
			m.W[j] = rng.NormFloat64()
			for kk := range m.row(j) {
				m.V[j*k+kk] = rng.NormFloat64()
			}
		}
		x := make([]float64, nf)
		for j := range x {
			if rng.Float64() < 0.3 {
				continue // keep some zeros to exercise sparsity handling
			}
			x[j] = rng.NormFloat64()
		}

		sum := make([]float64, k)
		fast := m.forward(x, sum)

		slow := m.W0
		for j, xj := range x {
			slow += m.W[j] * xj
		}
		for i := 0; i < nf; i++ {
			for j := i + 1; j < nf; j++ {
				slow += m.PairWeight(i, j) * x[i] * x[j]
			}
		}
		return math.Abs(fast-slow) < 1e-9*math.Max(1, math.Abs(slow))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestScoreAllMatchesScore(t *testing.T) {
	d := xorData(200, 9)
	m, err := Fit(d, Config{Seed: 1, Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch := m.ScoreAll(d.X[:50])
	for i := 0; i < 50; i++ {
		if batch[i] != m.Score(d.X[i]) {
			t.Fatal("ScoreAll disagrees with Score")
		}
	}
}

func TestFitDeterministic(t *testing.T) {
	d := xorData(300, 10)
	a, err := Fit(d, Config{Seed: 4, Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(d, Config{Seed: 4, Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.W {
		if a.W[j] != b.W[j] {
			t.Fatal("same-seed FM fits differ")
		}
	}
}
