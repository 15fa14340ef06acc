package tree

import (
	"math/rand"
	"testing"

	"telcochurn/internal/dataset"
)

// synthDataset builds a small labeled dataset with a learnable signal.
func synthDataset(n, feats int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(make([]string, feats))
	for j := range d.FeatureNames {
		d.FeatureNames[j] = "f" + string(rune('a'+j%26))
	}
	for i := 0; i < n; i++ {
		row := make([]float64, feats)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		y := 0
		if row[0]-row[1] > 0.3 {
			y = 1
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
	}
	return d
}

// TestFitForestDeterministicAcrossWorkers is the model half of the pipeline
// determinism guarantee: identical seeds must yield bit-identical forests
// for any Workers setting.
func TestFitForestDeterministicAcrossWorkers(t *testing.T) {
	d := synthDataset(600, 8, 7)
	cfg := ForestConfig{NumTrees: 40, MinLeafSamples: 10, Seed: 5}

	cfg.Workers = 1
	f1, err := FitForest(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	f8, err := FitForest(d, cfg)
	if err != nil {
		t.Fatal(err)
	}

	s1 := f1.ScoreAll(d.X)
	s8 := f8.ScoreAll(d.X)
	for i := range s1 {
		if s1[i] != s8[i] {
			t.Fatalf("score %d differs across worker counts: %v vs %v", i, s1[i], s8[i])
		}
	}
	i1, i8 := f1.Importance(), f8.Importance()
	for j := range i1 {
		if i1[j] != i8[j] {
			t.Fatalf("importance %d differs across worker counts: %v vs %v", j, i1[j], i8[j])
		}
	}
}

// TestFitForestHistogramDeterministicAcrossWorkers extends the guarantee to
// histogram mode: binned split search must stay bit-identical for any
// Workers setting too (bins are computed once per forest, before the
// parallel tree loop).
func TestFitForestHistogramDeterministicAcrossWorkers(t *testing.T) {
	d := synthDataset(600, 8, 7)
	cfg := ForestConfig{NumTrees: 40, MinLeafSamples: 10, Seed: 5, MaxBins: 32}

	cfg.Workers = 1
	f1, err := FitForest(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	f8, err := FitForest(d, cfg)
	if err != nil {
		t.Fatal(err)
	}

	s1 := f1.ScoreAll(d.X)
	s8 := f8.ScoreAll(d.X)
	for i := range s1 {
		if s1[i] != s8[i] {
			t.Fatalf("hist score %d differs across worker counts: %v vs %v", i, s1[i], s8[i])
		}
	}
	i1, i8 := f1.Importance(), f8.Importance()
	for j := range i1 {
		if i1[j] != i8[j] {
			t.Fatalf("hist importance %d differs across worker counts: %v vs %v", j, i1[j], i8[j])
		}
	}
}

func TestScoreAllEmptyAndSingle(t *testing.T) {
	d := synthDataset(300, 5, 3)
	f, err := FitForest(d, ForestConfig{NumTrees: 15, MinLeafSamples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.ScoreAll(nil); len(got) != 0 {
		t.Errorf("ScoreAll(nil) = %v, want empty", got)
	}
	one := f.ScoreAll(d.X[:1])
	if want := treeAverage(f, d.X[0])[1]; len(one) != 1 || one[0] != want {
		t.Errorf("single-row ScoreAll = %v, want [%v]", one, want)
	}
}

// TestScoreAllLargeBatchMatchesScore: a batch large enough to fan out across
// workers scores every row like the per-tree reference.
func TestScoreAllLargeBatchMatchesScore(t *testing.T) {
	d := synthDataset(900, 6, 11)
	f, err := FitForest(d, ForestConfig{NumTrees: 25, MinLeafSamples: 10, Seed: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range f.ScoreAll(d.X) {
		if want := treeAverage(f, d.X[i])[1]; s != want {
			t.Fatalf("row %d: batch score %v != per-tree score %v", i, s, want)
		}
	}
}
