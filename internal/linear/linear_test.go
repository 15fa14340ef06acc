package linear

import (
	"math/rand"
	"testing"
	"testing/quick"

	"telcochurn/internal/dataset"
)

func separable(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New([]string{"x0", "x1"})
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		y := 0
		if a+b > 0 {
			y = 1
		}
		d.Add([]float64{a, b}, y)
	}
	return d
}

func TestLogisticLearnsLinearBoundary(t *testing.T) {
	d := separable(800, 1)
	m, err := Fit(d, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	test := separable(400, 2)
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
	if acc := float64(correct) / 400; acc < 0.95 {
		t.Errorf("accuracy %.3f, want >= 0.95", acc)
	}
	// Both weights should be positive (boundary a+b>0).
	if m.Weights[0] <= 0 || m.Weights[1] <= 0 {
		t.Errorf("weights = %v, want positive", m.Weights)
	}
}

func TestLogisticRespectInstanceWeights(t *testing.T) {
	// Conflicting labels at the same point; weights decide the probability.
	d := dataset.New([]string{"x"})
	for i := 0; i < 40; i++ {
		d.Add([]float64{1}, i%2)
	}
	d.W = make([]float64, 40)
	for i := range d.W {
		if d.Y[i] == 1 {
			d.W[i] = 4
		} else {
			d.W[i] = 1
		}
	}
	m, err := Fit(d, Config{Seed: 1, Epochs: 120})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Score([]float64{1}); s < 0.65 {
		t.Errorf("weighted score = %g, want > 0.65 (class 1 weighted 4x)", s)
	}
}

func TestLogisticErrors(t *testing.T) {
	if _, err := Fit(dataset.New([]string{"x"}), Config{}); err == nil {
		t.Error("want error for empty dataset")
	}
	d := dataset.New([]string{"x"})
	d.Add([]float64{1}, 3)
	if _, err := Fit(d, Config{}); err == nil {
		t.Error("want error for non-binary labels")
	}
}

func TestScoreAllMatchesScore(t *testing.T) {
	d := separable(100, 3)
	m, err := Fit(d, Config{Seed: 1, Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch := m.ScoreAll(d.X)
	for i := range d.X {
		if batch[i] != m.Score(d.X[i]) {
			t.Fatal("ScoreAll disagrees")
		}
	}
}

func TestBinarizerOneHotProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := dataset.New([]string{"a", "b"})
		n := 10 + rng.Intn(200)
		for i := 0; i < n; i++ {
			d.Add([]float64{rng.NormFloat64(), float64(rng.Intn(3))}, rng.Intn(2))
		}
		bin := FitBinarizer(d, 4)
		out := bin.Transform(d)
		if out.NumFeatures() != bin.NumOutputs() {
			return false
		}
		// Every row is a concatenation of one-hot blocks: exactly one 1 per
		// source feature.
		for _, row := range out.X {
			ones := 0
			for _, v := range row {
				if v != 0 && v != 1 {
					return false
				}
				if v == 1 {
					ones++
				}
			}
			if ones != 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBinarizerConstantColumn(t *testing.T) {
	d := dataset.New([]string{"c"})
	for i := 0; i < 20; i++ {
		d.Add([]float64{7}, 0)
	}
	bin := FitBinarizer(d, 8)
	// Duplicate quantile boundaries collapse to one cut: two buckets, all
	// mass in the lower one.
	if bin.NumOutputs() != 2 {
		t.Errorf("constant column produced %d outputs, want 2", bin.NumOutputs())
	}
	row := bin.TransformRow([]float64{7})
	if len(row) != 2 || row[0] != 1 || row[1] != 0 {
		t.Errorf("TransformRow = %v", row)
	}
}

func TestBinarizerMonotoneBuckets(t *testing.T) {
	d := dataset.New([]string{"x"})
	for i := 0; i < 100; i++ {
		d.Add([]float64{float64(i)}, 0)
	}
	bin := FitBinarizer(d, 4)
	bucketOf := func(v float64) int {
		row := bin.TransformRow([]float64{v})
		for i, b := range row {
			if b == 1 {
				return i
			}
		}
		return -1
	}
	prev := -1
	for v := 0.0; v <= 99; v += 7 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucket not monotone at %g: %d < %d", v, b, prev)
		}
		prev = b
	}
	if bucketOf(0) == bucketOf(99) {
		t.Error("extreme values share a bucket")
	}
}

func TestBinarizerNamesAligned(t *testing.T) {
	d := dataset.New([]string{"a"})
	for i := 0; i < 50; i++ {
		d.Add([]float64{float64(i % 10)}, 0)
	}
	bin := FitBinarizer(d, 3)
	if len(bin.names) != bin.NumOutputs() {
		t.Errorf("names %d != outputs %d", len(bin.names), bin.NumOutputs())
	}
	out := bin.Transform(d)
	if len(out.FeatureNames) != out.NumFeatures() {
		t.Error("transformed dataset names misaligned")
	}
}
