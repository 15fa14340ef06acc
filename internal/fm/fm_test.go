package fm

import (
	"math"
	"math/rand"
	"testing"

	"telcochurn/internal/dataset"
)

// xorData builds a dataset whose label depends ONLY on the interaction
// x0*x1 (XOR-like): no linear model can fit it, a factorization machine can.
func xorData(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New([]string{"x0", "x1", "noise"})
	for i := 0; i < n; i++ {
		a := float64(rng.Intn(2))*2 - 1 // ±1
		b := float64(rng.Intn(2))*2 - 1
		y := 0
		if a*b > 0 {
			y = 1
		}
		d.Add([]float64{a, b, rng.NormFloat64()}, y)
	}
	return d
}

func TestFMLearnsInteraction(t *testing.T) {
	d := xorData(1500, 1)
	m, err := Fit(d, Config{Seed: 1, Epochs: 40, LearningRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	test := xorData(500, 2)
	correct := 0
	for i, x := range test.X {
		pred := 0
		if m.Score(x) > 0.5 {
			pred = 1
		}
		if pred == test.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / 500; acc < 0.9 {
		t.Errorf("FM accuracy on XOR %.3f, want >= 0.9", acc)
	}
}

func TestTopPairsFindsInteraction(t *testing.T) {
	d := xorData(1500, 3)
	m, err := Fit(d, Config{Seed: 1, Epochs: 40, LearningRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	top := m.TopPairs(1)
	if len(top) != 1 {
		t.Fatalf("TopPairs(1) returned %d", len(top))
	}
	if !(top[0].I == 0 && top[0].J == 1) {
		t.Errorf("top pair = (%d,%d), want (0,1)", top[0].I, top[0].J)
	}
	if top[0].Weight <= 0 {
		t.Errorf("interaction weight = %g, want positive (x0*x1>0 => class 1)", top[0].Weight)
	}
}

func TestTopPairsCountAndOrdering(t *testing.T) {
	d := xorData(300, 4)
	m, err := Fit(d, Config{Seed: 2, Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	pairs := m.TopPairs(100) // more than 3 features allow (3 pairs)
	if len(pairs) != 3 {
		t.Fatalf("TopPairs = %d pairs, want 3", len(pairs))
	}
	for i := 1; i < len(pairs); i++ {
		if math.Abs(pairs[i].Weight) > math.Abs(pairs[i-1].Weight) {
			t.Error("pairs not sorted by |weight| descending")
		}
	}
}

func TestPairWeightMatchesDot(t *testing.T) {
	m := &Model{W: make([]float64, 2), K: 2, V: []float64{1, 2, 3, -1}}
	if got := m.PairWeight(0, 1); got != 1 {
		t.Errorf("PairWeight = %g, want 1", got)
	}
}

func TestFMStableOnDenseData(t *testing.T) {
	// Dense heavy-tailed standardized-ish inputs previously diverged to NaN;
	// gradient clipping must keep everything finite.
	rng := rand.New(rand.NewSource(5))
	d := dataset.New([]string{"a", "b", "c", "d", "e"})
	for i := 0; i < 800; i++ {
		row := make([]float64, 5)
		for j := range row {
			row[j] = rng.NormFloat64() * 5
		}
		d.Add(row, rng.Intn(2))
	}
	m, err := Fit(d, Config{Seed: 1, Epochs: 25, LearningRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if math.IsNaN(m.PairWeight(i, j)) || math.IsInf(m.PairWeight(i, j), 0) {
				t.Fatalf("pair weight (%d,%d) not finite", i, j)
			}
		}
	}
	for _, s := range m.ScoreAll(d.X[:50]) {
		if math.IsNaN(s) || s < 0 || s > 1 {
			t.Fatalf("score %g invalid", s)
		}
	}
}

func TestFMErrors(t *testing.T) {
	if _, err := Fit(dataset.New([]string{"x"}), Config{}); err == nil {
		t.Error("want error for empty dataset")
	}
	d := dataset.New([]string{"x"})
	d.Add([]float64{1}, 5)
	if _, err := Fit(d, Config{}); err == nil {
		t.Error("want error for non-binary labels")
	}
}

func TestInstanceWeightsShiftFM(t *testing.T) {
	d := dataset.New([]string{"x"})
	for i := 0; i < 60; i++ {
		d.Add([]float64{1}, i%2)
	}
	d.W = make([]float64, 60)
	for i := range d.W {
		if d.Y[i] == 1 {
			d.W[i] = 5
		} else {
			d.W[i] = 1
		}
	}
	m, err := Fit(d, Config{Seed: 1, Epochs: 60, LearningRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Score([]float64{1}); s < 0.6 {
		t.Errorf("weighted FM score = %g, want > 0.6", s)
	}
}
