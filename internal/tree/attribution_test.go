package tree

import (
	"math"
	"testing"
	"testing/quick"

	"math/rand"
)

func TestContributionsDecomposeScore(t *testing.T) {
	d := separable(500, 21)
	f, err := FitForest(d, ForestConfig{NumTrees: 25, MinLeafSamples: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := []float64{rng.Float64(), rng.NormFloat64()}
		bias, contrib := f.Contributions(x)
		sum := bias
		for _, c := range contrib {
			sum += c
		}
		return math.Abs(sum-treeAverage(f, x)[1]) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestContributionsCreditInformativeFeature(t *testing.T) {
	d := separable(600, 22)
	f, err := FitForest(d, ForestConfig{NumTrees: 30, MinLeafSamples: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A clear positive instance: feature 0 carries all the signal, so its
	// attribution should dominate the noise feature's.
	_, contrib := f.Contributions([]float64{0.95, 0})
	if contrib[0] <= math.Abs(contrib[1]) {
		t.Errorf("contrib = %v; informative feature not dominant", contrib)
	}
	if contrib[0] <= 0 {
		t.Errorf("positive instance got non-positive attribution %g", contrib[0])
	}
	// And a clear negative instance gets a negative attribution on x0.
	_, contrib = f.Contributions([]float64{0.05, 0})
	if contrib[0] >= 0 {
		t.Errorf("negative instance got non-negative attribution %g", contrib[0])
	}
}

func TestTopContributionsOrderAndNames(t *testing.T) {
	d := separable(400, 23)
	d.FeatureNames = []string{"signal", "noise"}
	f, err := FitForest(d, ForestConfig{NumTrees: 15, MinLeafSamples: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	top := f.TopContributions([]float64{0.9, 0.1}, 2)
	if len(top) != 2 {
		t.Fatalf("top = %d entries", len(top))
	}
	if top[0].Feature != "signal" {
		t.Errorf("top contribution = %q, want signal", top[0].Feature)
	}
	if math.Abs(top[0].Score) < math.Abs(top[1].Score) {
		t.Error("top contributions not sorted by |score|")
	}
	if top[0].Value != 0.9 {
		t.Errorf("top value = %g", top[0].Value)
	}
}

func TestContributionsEmptyForest(t *testing.T) {
	f := &Forest{}
	bias, contrib := f.Contributions([]float64{1})
	if bias != 0 || contrib != nil {
		t.Errorf("empty forest: bias=%g contrib=%v", bias, contrib)
	}
}
