package tree

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"telcochurn/internal/dataset"
	"telcochurn/internal/parallel"
)

// ForestConfig configures a random forest. The defaults follow Section 4.2:
// 500 trees, √N features per split, minimum 100 samples per leaf.
type ForestConfig struct {
	// NumTrees is the ensemble size T of Eq. (4). Default 500.
	NumTrees int
	// MinLeafSamples defaults to the paper's 100.
	MinLeafSamples int
	// MaxDepth bounds tree depth (0 = unlimited).
	MaxDepth int
	// FeaturesPerSplit defaults to √N (-1). 0 means all features.
	FeaturesPerSplit int
	// Seed makes training deterministic (bootstraps and feature sampling
	// derive per-tree seeds from it).
	Seed int64
	// Workers caps training parallelism; 0 means GOMAXPROCS.
	Workers int
	// MaxBins enables histogram split search in every tree (see
	// Config.MaxBins). Bin edges are computed once per forest from the full
	// training matrix, as LightGBM does; 0 keeps exact splits.
	MaxBins int
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.NumTrees == 0 {
		c.NumTrees = 500
	}
	if c.MinLeafSamples == 0 {
		c.MinLeafSamples = 100
	}
	if c.FeaturesPerSplit == 0 {
		c.FeaturesPerSplit = -1
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Forest is a trained random forest in the flat node arrays (compiled.go),
// the one form that fitting writes, WriteTo persists, attribution walks and
// Score reads. The scoring parallelism carries over from
// ForestConfig.Workers.
type Forest struct {
	nodes
	probs      []float64 // per node: class distribution, numClasses stride
	numClasses int
	importance []float64 // normalized Gini importance per feature (Eq. 7)
	features   []string
}

// alloc appends k consecutive node slots, class distributions included,
// and returns the first index.
func (f *Forest) alloc(k int) int32 {
	for range k * f.numClasses {
		f.probs = append(f.probs, 0)
	}
	return f.nodes.alloc(k)
}

// FitForest trains a random forest with bootstrap aggregating over CART
// trees. Instance weights (dataset.W) flow into both the Gini computation
// and the leaf distributions, implementing the paper's Weighted Instance
// imbalance method inside the ensemble.
func FitForest(d *dataset.Dataset, cfg ForestConfig) (*Forest, error) {
	cfg = cfg.withDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.NumInstances()
	if n == 0 {
		return nil, errors.New("tree: empty dataset")
	}
	numClasses := d.NumClasses()
	if numClasses < 2 {
		numClasses = 2
	}

	if n > math.MaxInt32 {
		return nil, errors.New("tree: dataset exceeds 2^31 rows")
	}

	// Transpose + presort (or bin) the training matrix once; every tree
	// grows over this shared view, on the distinct rows its bootstrap drew
	// (see newBootstrapLayout).
	treeCfg := Config{
		MinLeafSamples:   cfg.MinLeafSamples,
		MaxDepth:         cfg.MaxDepth,
		FeaturesPerSplit: cfg.FeaturesPerSplit,
		MaxBins:          cfg.MaxBins,
	}.withDefaults()
	cd := newColData(d.X, d.NumFeatures(), treeCfg.MaxBins, cfg.Workers)

	// Each tree draws from its own RNG stream keyed by tree index, so the
	// ensemble is bit-identical for any worker count. The per-tree buffers
	// (draw counts, filtered orders, partition scratch) cycle through a
	// pool, so steady state allocates them once per worker rather than once
	// per tree.
	trees := make([]*Forest, cfg.NumTrees)
	imps := make([][]float64, cfg.NumTrees)
	pool := sync.Pool{New: func() any { return new(bootBuffers) }}
	parallel.ForGrain(cfg.Workers, cfg.NumTrees, 1, func(t int) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*1_000_003))
		idx := bootstrapIdx(d, rng)
		tc := treeCfg
		tc.Seed = cfg.Seed + int64(t)*7_000_003
		b := pool.Get().(*bootBuffers)
		trees[t], imps[t] = fitTreeBoot(cd, d, idx, tc, numClasses, b)
		pool.Put(b)
	})

	f := joinTrees(trees, numClasses)
	f.features = d.FeatureNames
	f.importance = normalizedSum(imps, d.NumFeatures())
	f.workers = cfg.Workers
	return f, nil
}

// joinTrees lays one-tree forests end to end in tree order into arrays of
// the exact size: each tree's node indices shift by the nodes before it.
func joinTrees(trees []*Forest, numClasses int) *Forest {
	total := 0
	for _, tr := range trees {
		total += len(tr.feats)
	}
	f := &Forest{numClasses: numClasses}
	f.feats = make([]int32, 0, total)
	f.thrs = make([]float64, 0, total)
	f.kids = make([]int32, 0, total)
	f.counts = make([]int32, 0, total)
	f.probs = make([]float64, 0, total*numClasses)
	f.roots = make([]int32, len(trees))
	for t, tr := range trees {
		base := int32(len(f.feats))
		f.roots[t] = base + tr.roots[0]
		for i, k := range tr.kids {
			if tr.feats[i] >= 0 {
				k += base
			}
			f.kids = append(f.kids, k)
		}
		f.feats = append(f.feats, tr.feats...)
		f.thrs = append(f.thrs, tr.thrs...)
		f.counts = append(f.counts, tr.counts...)
		f.probs = append(f.probs, tr.probs...)
	}
	return f
}

// normalizedSum adds the trees' raw importances per feature in tree order
// and scales the sum to 1 (Eq. 7), or leaves it all zero when no split
// improved.
func normalizedSum(treeImp [][]float64, numFeat int) []float64 {
	imp := make([]float64, numFeat)
	for _, ti := range treeImp {
		for f, v := range ti {
			imp[f] += v
		}
	}
	total := 0.0
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for f := range imp {
			imp[f] /= total
		}
	}
	return imp
}

// fitTreeBoot fits one forest tree on the bootstrap draw idx over the
// shared columnar view: the tree equals one grown on the resample
// x[idx[0]], x[idx[1]], …, computed on the distinct rows drawn, with unit
// weights and the dataset's own labels. It returns the tree with its raw
// Gini importance.
func fitTreeBoot(cd *colData, d *dataset.Dataset, idx []int, cfg Config, numClasses int, b *bootBuffers) (*Forest, []float64) {
	lay := newBootstrapLayout(cd, idx, b)
	tr, imp := newColGrower(lay, d.Y, nil, numClasses, d.NumFeatures(), cfg).fit(len(lay.rows), &b.tree)
	// The next tree this worker fits reuses b.tree: a join of one copies
	// the tree out at its exact size.
	return joinTrees([]*Forest{tr}, numClasses), imp
}

// bootstrapIdx draws the per-tree sample's row indices. With instance
// weights present, rows are drawn proportionally to weight (weighted
// bootstrap): plain class weights only rescale leaf probabilities — a
// monotone recalibration that leaves rankings untouched — whereas
// reweighted resampling changes which splits the trees learn, which is what
// gives the Weighted Instance method its Table 7 ranking gains. The fit
// itself then uses unit weights: the draw already encodes them, and
// carrying them into the Gini computation would square their influence.
func bootstrapIdx(d *dataset.Dataset, rng *rand.Rand) []int {
	n := d.NumInstances()
	idx := make([]int, n)
	if d.W == nil {
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		return idx
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += d.W[i]
		cum[i] = total
	}
	for i := range idx {
		r := rng.Float64() * total
		idx[i] = sort.SearchFloat64s(cum, r)
		if idx[i] >= n {
			idx[i] = n - 1
		}
	}
	return idx
}

// Importance returns the normalized Gini feature importance (Eq. 7),
// aligned with the training feature names.
func (f *Forest) Importance() []float64 {
	return append([]float64(nil), f.importance...)
}

// FeatureNames returns the training feature names.
func (f *Forest) FeatureNames() []string { return f.features }
