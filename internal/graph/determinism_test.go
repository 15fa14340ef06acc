package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomGraph builds a reproducible test graph of random pairs over n
// ids; ids no pair touches are not vertices.
func randomGraph(n, edges int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]pair, edges)
	for e := range pairs {
		pairs[e] = pair{int64(rng.Intn(n)), int64(rng.Intn(n)), 0.1 + rng.Float64()*10}
	}
	return build(pairs...)
}

// TestPageRankDeterministicAcrossWorkers asserts the hard guarantee the
// parallel refactor promises: the same graph yields bit-identical ranks for
// any worker count (gather sweeps + chunk-ordered delta reduction).
func TestPageRankDeterministicAcrossWorkers(t *testing.T) {
	g := randomGraph(2000, 6000, 3)
	ref := g.PageRank(PageRankOptions{Workers: 1})
	for _, w := range []int{2, 4, 8} {
		got := g.PageRank(PageRankOptions{Workers: w})
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d ranks, want %d", w, len(got), len(ref))
		}
		for i, v := range ref {
			if got[i] != v {
				t.Fatalf("workers=%d: rank of %d = %v, want exactly %v", w, g.IDs()[i], got[i], v)
			}
		}
	}
}

func TestLabelPropagationDeterministicAcrossWorkers(t *testing.T) {
	g := randomGraph(1500, 5000, 9)
	seeds := map[int64]int{}
	for i := 0; i < 1500; i += 7 {
		seeds[int64(i)] = i % 3
	}
	ref := g.LabelPropagation(seeds, 3, LabelPropOptions{Workers: 1})
	for _, w := range []int{2, 8} {
		got := g.LabelPropagation(seeds, 3, LabelPropOptions{Workers: w})
		for k, p := range ref {
			if got[k] != p {
				t.Fatalf("workers=%d: vertex %d class %d = %v, want exactly %v",
					w, g.IDs()[k/3], k%3, got[k], p)
			}
		}
	}
}

// naiveLabelPropagation is the sweep written the plain way, one slice per
// vertex, with the default 30 sweeps and 1e-6 tolerance and the
// convergence delta folded per 512-vertex chunk as SumChunks folds it: the
// reference the flat sweep must match bit for bit. Rows are by dense index.
func naiveLabelPropagation(g *Graph, seeds map[int64]int, C int) [][]float64 {
	y, next, fixed := make([][]float64, len(g.ids)), make([][]float64, len(g.ids)), make([]bool, len(g.ids))
	for i, id := range g.ids {
		y[i], next[i] = make([]float64, C), make([]float64, C)
		for c := range y[i] {
			y[i][c] = 1.0 / float64(C)
		}
		if cls, ok := seeds[id]; ok && cls >= 0 && cls < C {
			clear(y[i])
			y[i][cls], fixed[i] = 1, true
		}
	}
	for iter, delta, part := 0, math.Inf(1), 0.0; iter < 30 && delta >= 1e-6*float64(len(g.ids)); iter++ {
		delta = 0
		for i := range g.ids {
			copy(next[i], y[i])
			if to, w := g.Adj(i); !fixed[i] {
				clear(next[i])
				for k, j := range to {
					for c := range next[i] {
						next[i][c] += float64(w[k] * y[j][c])
					}
				}
				sum := 0.0
				for _, v := range next[i] {
					sum += v
				}
				for c := range next[i] {
					next[i][c] /= sum // every test weight is positive
					part += math.Abs(next[i][c] - y[i][c])
				}
			}
			if (i+1)%vertexGrain == 0 || i == len(g.ids)-1 {
				delta, part = delta+part, 0
			}
		}
		y, next = next, y
	}
	return y
}

// TestLabelPropagationMatchesNaiveReference covers the two-class gather
// (churn features) and the general path (retention's outcome classes),
// with seeds on ids that are not vertices and out-of-range seeds, at
// several worker counts.
func TestLabelPropagationMatchesNaiveReference(t *testing.T) {
	g := randomGraph(1300, 6000, 17)
	for _, C := range []int{2, 3} {
		seeds := map[int64]int{}
		for i := 0; i < 1310; i += 5 {
			seeds[int64(i)] = i % (C + 1) // class C is out of range: not a seed
		}
		want := naiveLabelPropagation(g, seeds, C)
		for _, w := range []int{1, 2, 8} {
			got := g.LabelPropagation(seeds, C, LabelPropOptions{Workers: w})
			for i, id := range g.IDs() {
				for c, p := range want[i] {
					if math.Float64bits(got[i*C+c]) != math.Float64bits(p) {
						t.Fatalf("C=%d workers=%d: vertex %d class %d = %v, want exactly %v",
							C, w, id, c, got[i*C+c], p)
					}
				}
			}
		}
	}
}

// naivePageRank is Eq. (1) written the plain way, with the default damping,
// 50 sweeps and 1e-9 tolerance: every vertex sums x/deg*w over its
// adjacency from 0, each degree is summed over the adjacency too, and the
// convergence delta folds per 512-vertex chunk as SumChunks folds it. It is the reference the gather must match bit for
// bit. The float64 conversions keep a host from fusing its sums.
func naivePageRank(g *Graph) []float64 {
	n, d := g.NumVertices(), 0.85
	inv := 1.0 / float64(n)
	x, deg := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = inv
		for _, w := range g.w[g.off[i]:g.off[i+1]] {
			deg[i] += w
		}
	}
	chunked := func(term func(i int) float64) float64 {
		total, part := 0.0, 0.0
		for i := range n {
			part += term(i)
			if (i+1)%vertexGrain == 0 || i == n-1 {
				total, part = total+part, 0
			}
		}
		return total
	}
	for iter, delta := 0, math.Inf(1); iter < 50 && delta >= 1e-9*float64(n); iter++ {
		next := make([]float64, n)
		delta = chunked(func(i int) float64 {
			sum := 0.0
			for k := g.off[i]; k < g.off[i+1]; k++ {
				j := g.to[k]
				sum += float64(x[j] / deg[j] * g.w[k])
			}
			next[i] = (1-d)*inv + float64(d*sum)
			return math.Abs(next[i] - x[i])
		})
		x = next
	}
	return x
}

// TestPageRankMatchesNaiveReference compares the gather with the plain
// sweep bit for bit over random graphs at several worker counts.
func TestPageRankMatchesNaiveReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := randomGraph(700*int(seed), 2500*int(seed), seed)
		want := naivePageRank(g)
		for _, w := range []int{1, 2, 8} {
			got := g.PageRank(PageRankOptions{Workers: w})
			for i, p := range want {
				if math.Float64bits(got[i]) != math.Float64bits(p) {
					t.Fatalf("seed %d workers=%d: rank of %d = %v, want exactly %v", seed, w, g.IDs()[i], got[i], p)
				}
			}
		}
	}
}
