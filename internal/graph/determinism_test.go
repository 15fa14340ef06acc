package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomGraph builds a reproducible scale-ish-free test graph.
func randomGraph(n, edges int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < n; i++ {
		g.AddVertex(int64(i))
	}
	for e := 0; e < edges; e++ {
		a := int64(rng.Intn(n))
		b := int64(rng.Intn(n))
		g.AddEdge(a, b, 0.1+rng.Float64()*10)
	}
	return g
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
		for id, v := range ref {
			if got[id] != v {
				t.Fatalf("workers=%d: rank of %d = %v, want exactly %v", w, id, got[id], v)
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
		for id, probs := range ref {
			for c := range probs {
				if got[id][c] != probs[c] {
					t.Fatalf("workers=%d: vertex %d class %d = %v, want exactly %v",
						w, id, c, got[id][c], probs[c])
				}
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
			if !fixed[i] && len(g.adj[i]) > 0 {
				clear(next[i])
				for _, e := range g.adj[i] {
					for c := range next[i] {
						next[i][c] += e.weight * y[e.to][c]
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
// with isolated vertices and out-of-range seeds, at several worker counts.
func TestLabelPropagationMatchesNaiveReference(t *testing.T) {
	g := randomGraph(1300, 6000, 17)
	for i := 1300; i < 1310; i++ {
		g.AddVertex(int64(i)) // isolated, some of them seeds
	}
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
					if math.Float64bits(got[id][c]) != math.Float64bits(p) {
						t.Fatalf("C=%d workers=%d: vertex %d class %d = %v, want exactly %v",
							C, w, id, c, got[id][c], p)
					}
				}
			}
		}
	}
}
