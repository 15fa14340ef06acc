package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeAccumulatesAndSymmetric(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 1, 2) // same undirected edge, reversed
	if got := g.EdgeWeight(1, 2); got != 5 {
		t.Errorf("EdgeWeight = %g, want 5", got)
	}
	if got := g.EdgeWeight(2, 1); got != 5 {
		t.Errorf("reverse EdgeWeight = %g, want 5", got)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAddEdgeIgnoresSelfLoopsAndNonPositive(t *testing.T) {
	g := New()
	g.AddEdge(1, 1, 5)
	g.AddEdge(1, 2, 0)
	g.AddEdge(1, 2, -3)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g.AddEdge(1, 2, w)
		g.AddDistinctEdge(3, 4, w)
	}
	if g.NumEdges() != 0 || g.NumVertices() != 0 {
		t.Errorf("NumEdges = %d, NumVertices = %d, want 0", g.NumEdges(), g.NumVertices())
	}
	g.AddEdge(1, 2, 2)
	g.AddEdge(1, 2, math.NaN())
	g.AddEdge(1, 2, math.Inf(1))
	if w := g.EdgeWeight(1, 2); w != 2 {
		t.Errorf("w(1,2) = %v after non-finite additions, want 2", w)
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := New()
	g.AddEdge(1, 3, 2)
	g.AddEdge(1, 2, 1)
	nb := g.Neighbors(1)
	if len(nb) != 2 || nb[0] != 2 || nb[1] != 3 {
		t.Errorf("Neighbors = %v", nb)
	}
	if g.Degree(1) != 3 {
		t.Errorf("Degree(1) = %g, want 3", g.Degree(1))
	}
	if g.Degree(99) != 0 || g.Neighbors(99) != nil {
		t.Error("missing vertex should report zero degree, nil neighbors")
	}
	if !g.Has(1) || g.Has(99) {
		t.Error("Has misreports")
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := 2 + rng.Intn(50)
		for i := 0; i < n; i++ {
			g.AddVertex(int64(i))
		}
		edges := rng.Intn(150)
		for i := 0; i < edges; i++ {
			g.AddEdge(int64(rng.Intn(n)), int64(rng.Intn(n)), 1+rng.Float64()*10)
		}
		pr := g.PageRank(PageRankOptions{})
		sum := 0.0
		for _, v := range pr {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPageRankUniformOnRing(t *testing.T) {
	g := New()
	const n = 10
	for i := 0; i < n; i++ {
		g.AddEdge(int64(i), int64((i+1)%n), 1)
	}
	pr := g.PageRank(PageRankOptions{})
	for id, v := range pr {
		if math.Abs(v-1.0/n) > 1e-9 {
			t.Errorf("ring vertex %d rank %g, want %g", id, v, 1.0/n)
		}
	}
}

func TestPageRankHubOutranksLeaves(t *testing.T) {
	g := New()
	for i := int64(1); i <= 8; i++ {
		g.AddEdge(0, i, 1)
	}
	pr := g.PageRank(PageRankOptions{})
	for i := int64(1); i <= 8; i++ {
		if pr[0] <= pr[i] {
			t.Fatalf("hub rank %g not above leaf %g", pr[0], pr[i])
		}
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	if got := New().PageRank(PageRankOptions{}); len(got) != 0 {
		t.Errorf("empty-graph PageRank = %v", got)
	}
}

func TestLabelPropagationSeedsFixed(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	seeds := map[int64]int{1: 1, 3: 0}
	out := g.LabelPropagation(seeds, 2, LabelPropOptions{})
	if out[1][1] != 1 || out[3][0] != 1 {
		t.Errorf("seed rows changed: %v %v", out[1], out[3])
	}
	// Vertex 2 sits between a churner and a non-churner: close to 0.5.
	if math.Abs(out[2][1]-0.5) > 1e-6 {
		t.Errorf("middle vertex churn prob = %g, want 0.5", out[2][1])
	}
}

func TestLabelPropagationTwoClusters(t *testing.T) {
	g := New()
	// Cluster A: 0-4 with seed churner 0; cluster B: 10-14 with seed stable 10.
	for i := int64(0); i < 4; i++ {
		g.AddEdge(i, i+1, 5)
	}
	for i := int64(10); i < 14; i++ {
		g.AddEdge(i, i+1, 5)
	}
	g.AddEdge(4, 10, 0.01) // weak bridge
	out := g.LabelPropagation(map[int64]int{0: 1, 14: 0}, 2, LabelPropOptions{})
	if out[2][1] < 0.8 {
		t.Errorf("cluster-A member churn prob %g, want high", out[2][1])
	}
	if out[12][1] > 0.2 {
		t.Errorf("cluster-B member churn prob %g, want low", out[12][1])
	}
}

func TestLabelPropagationSimplexProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := 3 + rng.Intn(40)
		for i := 0; i < n; i++ {
			g.AddVertex(int64(i))
		}
		for e := 0; e < n*2; e++ {
			g.AddEdge(int64(rng.Intn(n)), int64(rng.Intn(n)), rng.Float64()*4+0.1)
		}
		seeds := map[int64]int{0: 1}
		if n > 1 {
			seeds[1] = 0
		}
		k := 2 + rng.Intn(3)
		out := g.LabelPropagation(seeds, k, LabelPropOptions{})
		for _, probs := range out {
			sum := 0.0
			for _, p := range probs {
				if p < -1e-9 || p > 1+1e-9 {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLabelPropagationIsolatedUniform(t *testing.T) {
	g := New()
	g.AddVertex(5)
	g.AddEdge(1, 2, 1)
	out := g.LabelPropagation(map[int64]int{1: 1}, 2, LabelPropOptions{})
	if math.Abs(out[5][0]-0.5) > 1e-9 {
		t.Errorf("isolated vertex probs = %v, want uniform", out[5])
	}
}

func TestValidateDetectsBrokenInvariant(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 1)
	// Break symmetry by hand.
	g.adj[0][0].weight = 99
	if err := g.Validate(); err == nil {
		t.Error("Validate should catch asymmetric edge")
	}
}

// TestFromEdgesMatchesAddDistinctEdge pins the bulk constructor to the
// one-edge-at-a-time build it replaces: vertex numbering, adjacency order
// and degree bits, with the edge list split into runs at arbitrary points,
// ids no edge uses, and the self-loops and non-positive or non-finite
// weights AddDistinctEdge ignores.
func TestFromEdgesMatchesAddDistinctEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ids := make([]int64, 60)
	for i := range ids {
		ids[i] = int64(1000 + 7*i)
	}
	var edges []Edge
	for u := range ids {
		for v := u; v < len(ids); v++ {
			if rng.Intn(6) == 0 {
				edges = append(edges, Edge{U: int32(u), V: int32(v), W: float64(rng.Intn(4)) + rng.Float64()})
			}
		}
	}
	edges = append(edges, Edge{U: 3, V: 4, W: 0}, Edge{U: 5, V: 6, W: -1},
		Edge{U: 7, V: 8, W: math.NaN()}, Edge{U: 9, V: 10, W: math.Inf(1)}, Edge{U: 11, V: 12, W: math.Inf(-1)})
	want := New()
	for _, e := range edges {
		want.AddDistinctEdge(ids[e.U], ids[e.V], e.W)
	}
	got := FromEdges(ids, edges[:10], nil, edges[10:37], edges[37:])
	if len(got.IDs()) != len(want.IDs()) {
		t.Fatalf("%d vertices, want %d", len(got.IDs()), len(want.IDs()))
	}
	for i, id := range want.IDs() {
		if got.IDs()[i] != id {
			t.Fatalf("vertex %d is %d, want %d", i, got.IDs()[i], id)
		}
		wto, ww := want.Adjacent(id)
		gto, gw := got.Adjacent(id)
		if len(gto) != len(wto) {
			t.Fatalf("vertex %d: %d neighbours, want %d", id, len(gto), len(wto))
		}
		for k := range wto {
			if gto[k] != wto[k] || math.Float64bits(gw[k]) != math.Float64bits(ww[k]) {
				t.Fatalf("vertex %d slot %d: (%d, %v), want (%d, %v)", id, k, gto[k], gw[k], wto[k], ww[k])
			}
		}
		if math.Float64bits(got.Degree(id)) != math.Float64bits(want.Degree(id)) {
			t.Fatalf("vertex %d: degree %v, want %v", id, got.Degree(id), want.Degree(id))
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}
