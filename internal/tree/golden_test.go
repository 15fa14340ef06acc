package tree

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"telcochurn/internal/dataset"
)

// goldenDataset is a fixed-seed training set with classes classes, a few
// NaN cells, and, when weighted, class weights that drive the weighted
// bootstrap.
func goldenDataset(seed int64, n, feats, classes int, weighted bool) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, feats)
	for j := range names {
		names[j] = string(rune('p' + j))
	}
	d := dataset.New(names)
	for i := 0; i < n; i++ {
		x := make([]float64, feats)
		for j := range x {
			x[j] = rng.NormFloat64()
			if rng.Intn(40) == 0 {
				x[j] = math.NaN()
			}
		}
		y := 0
		if x[0]-0.5*x[1]+0.3*rng.NormFloat64() > 0.4 {
			y = 1
		}
		if classes > 2 && x[2] > 0.8 {
			y = 2
		}
		d.Add(x, y)
	}
	if weighted {
		d.W = make([]float64, n)
		for i, y := range d.Y {
			d.W[i] = 1 + 2*float64(y)
		}
	}
	return d
}

// gbdtWords lists a GBDT's bias, learning rate and node arrays (roots,
// feats, thrs, kids, counts, each after its length) as words, the form
// the tests compare and hash boosted ensembles in.
func gbdtWords(g *GBDT) []uint64 {
	w := []uint64{math.Float64bits(g.bias), math.Float64bits(g.lr)}
	ints := func(a []int32) {
		w = append(w, uint64(len(a)))
		for _, v := range a {
			w = append(w, uint64(v))
		}
	}
	ints(g.roots)
	ints(g.feats)
	w = append(w, uint64(len(g.thrs)))
	for _, v := range g.thrs {
		w = append(w, math.Float64bits(v))
	}
	ints(g.kids)
	ints(g.counts)
	return w
}

// TestModelGoldenDigest pins what fitting and persistence produce and the
// bits attribution returns: an FNV-64a over the TCRF encodings of
// fixed-seed forests (weighted 2-class with exact and with binned splits,
// 3-class), over Contributions on fixed probes with NaN and ±Inf cells,
// and over a fixed-seed GBDT's node arrays. A change to how trees are
// grown, stored or walked that moves any of them fails here.
func TestModelGoldenDigest(t *testing.T) {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	probes := func(feats int) [][]float64 {
		rng := rand.New(rand.NewSource(99))
		xs := make([][]float64, 40)
		for i := range xs {
			xs[i] = make([]float64, feats)
			for j := range xs[i] {
				switch rng.Intn(8) {
				case 0:
					xs[i][j] = math.NaN()
				case 1:
					xs[i][j] = math.Inf(1 - 2*rng.Intn(2))
				default:
					xs[i][j] = 2 * rng.NormFloat64()
				}
			}
		}
		return xs
	}
	forest := func(name string, d *dataset.Dataset, cfg ForestConfig) {
		f, err := FitForest(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.WriteTo(h)
		if err != nil || n == 0 {
			t.Fatalf("%s: WriteTo = %d, %v", name, n, err)
		}
		for _, x := range probes(d.NumFeatures()) {
			bias, contrib := f.Contributions(x)
			word(math.Float64bits(bias))
			for _, c := range contrib {
				word(math.Float64bits(c))
			}
		}
	}
	two := goldenDataset(1, 700, 5, 2, true)
	forest("2-class exact", two, ForestConfig{NumTrees: 9, MinLeafSamples: 12, Seed: 4, Workers: 3})
	forest("2-class 32 bins", two, ForestConfig{NumTrees: 9, MinLeafSamples: 12, Seed: 4, Workers: 3, MaxBins: 32})
	forest("3-class", goldenDataset(2, 600, 4, 3, false), ForestConfig{NumTrees: 7, MinLeafSamples: 10, Seed: 6, Workers: 2})

	g, err := FitGBDT(goldenDataset(3, 500, 4, 2, true), GBDTConfig{NumTrees: 12, MaxDepth: 4, MinLeafSamples: 15, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range gbdtWords(g) {
		word(v)
	}

	const want = uint64(0xe8d0d257bd0e8bb8)
	if got := h.Sum64(); got != want {
		t.Errorf("model digest = %#016x, want %#016x", got, want)
	}
}
