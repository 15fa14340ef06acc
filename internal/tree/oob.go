package tree

import (
	"errors"
	"math/rand"

	"telcochurn/internal/dataset"
)

// Out-of-bag evaluation: each bootstrap leaves out ~36.8% of the training
// rows; scoring every row only with the trees that never saw it gives an
// unbiased accuracy estimate without a holdout set. Deployed monthly
// retraining uses this as the pre-release sanity check (no labeled "next
// month" exists yet at training time).

// OOBScores returns, for each training instance, the class-1 probability
// averaged over the trees whose bootstrap excluded it, plus a coverage mask
// (false where every tree saw the row — possible for tiny ensembles).
//
// d and cfg must be exactly the dataset and configuration used for
// FitForest: the per-tree bootstraps are regenerated from cfg.Seed.
func OOBScores(d *dataset.Dataset, cfg ForestConfig, f *Forest) ([]float64, []bool, error) {
	cfg = cfg.withDefaults()
	if f.NumTrees() != cfg.NumTrees {
		return nil, nil, errors.New("tree: forest does not match config (tree count)")
	}
	n := d.NumInstances()
	sum := make([]float64, n)
	count := make([]int, n)

	inBag := make([]bool, n)
	for t := 0; t < cfg.NumTrees; t++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*1_000_003))
		clear(inBag)
		for _, r := range bootstrapIdx(d, rng) {
			inBag[r] = true
		}
		tr := f.trees[t]
		for i := 0; i < n; i++ {
			if inBag[i] {
				continue
			}
			sum[i] += tr.PredictProba(d.X[i])[1]
			count[i]++
		}
	}
	scores := make([]float64, n)
	covered := make([]bool, n)
	for i := 0; i < n; i++ {
		if count[i] > 0 {
			scores[i] = sum[i] / float64(count[i])
			covered[i] = true
		}
	}
	return scores, covered, nil
}
