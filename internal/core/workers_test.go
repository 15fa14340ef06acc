package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"telcochurn/internal/tree"
)

// scoringMallocs counts the heap allocations of one ScoreAll with
// GOMAXPROCS at 4, the fewest over a few runs. Scoring inline allocates
// the result and little else; fanning out adds the pool's shared state and
// a closure per goroutine, so the count tells whether a worker cap reached
// the scorer.
func scoringMallocs(clf Classifier, rows [][]float64) (uint64, []float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	best := uint64(math.MaxUint64)
	var scores []float64
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		scores = clf.ScoreAll(rows)
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best, scores
}

// TestSetWorkersCapsBatchScoring: the pipeline's Workers caps the
// classifier's batch scoring — for a forest loaded from an artifact, which
// carries no worker count, and for a GBDT fitted in process — and the
// scores do not depend on it.
func TestSetWorkersCapsBatchScoring(t *testing.T) {
	src, train, _ := artifactWorld(t)
	fitted, err := Fit(src, train, Config{Forest: tree.ForestConfig{NumTrees: 6, MinLeafSamples: 10, Seed: 1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := fitted.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := Fit(src, train, Config{
		Classifier: &GBDTClassifier{Config: tree.GBDTConfig{NumTrees: 8, MaxDepth: 3, MinLeafSamples: 10, Seed: 1}},
		Seed:       1,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 1 024 rows are four 256-row chunks: enough for four goroutines when uncapped.
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 1024)
	for i := range rows {
		rows[i] = make([]float64, len(loaded.FeatureNames()))
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	for name, p := range map[string]*Pipeline{"loaded RF": loaded, "fitted GBDT": boosted} {
		p.SetWorkers(1)
		capped, want := scoringMallocs(p.Classifier(), rows)
		p.SetWorkers(4)
		fanned, got := scoringMallocs(p.Classifier(), rows)
		if capped >= fanned {
			t.Errorf("%s: ScoreAll allocates %d times at Workers 1 and %d at Workers 4; the cap does not reach the scorer",
				name, capped, fanned)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: row %d scores %v at Workers 4, %v at Workers 1", name, i, got[i], want[i])
			}
		}
	}
}
