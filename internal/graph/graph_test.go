package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// pair is one undirected edge of a test graph.
type pair struct {
	a, b int64
	w    float64
}

// build sums the weights of each unordered vertex pair of pairs, in list
// order, and builds the graph of the sums with FromEdges: one edge per
// pair, in the order the pair first appears.
func build(pairs ...pair) *Graph {
	var ids []int64
	pos := map[int64]int32{}
	at := func(id int64) int32 {
		p, ok := pos[id]
		if !ok {
			p = int32(len(ids))
			pos[id] = p
			ids = append(ids, id)
		}
		return p
	}
	slot := map[[2]int64]int{}
	var edges []Edge
	for _, p := range pairs {
		k := [2]int64{min(p.a, p.b), max(p.a, p.b)}
		if s, ok := slot[k]; ok {
			edges[s].W += p.w
			continue
		}
		slot[k] = len(edges)
		edges = append(edges, Edge{U: at(p.a), V: at(p.b), W: p.w})
	}
	return FromEdges(ids, edges)
}

// rowOf returns vertex id's class-probability row of a LabelPropagation
// result over C classes.
func rowOf(g *Graph, probs []float64, C int, id int64) []float64 {
	i := slices.Index(g.IDs(), id)
	return probs[i*C : (i+1)*C]
}

func TestFromEdgesIgnoresSelfLoopsAndNonPositive(t *testing.T) {
	ids := []int64{1, 2, 3, 4}
	bad := []Edge{{U: 0, V: 0, W: 5}, {U: 0, V: 1, W: 0}, {U: 0, V: 1, W: -3},
		{U: 2, V: 3, W: math.NaN()}, {U: 2, V: 3, W: math.Inf(1)}, {U: 2, V: 3, W: math.Inf(-1)}}
	if g := FromEdges(ids, bad); g.NumVertices() != 0 {
		t.Errorf("NumVertices = %d, want 0", g.NumVertices())
	}
	g := FromEdges(ids, bad[:3], []Edge{{U: 0, V: 1, W: 2}}, bad[3:])
	if !slices.Equal(g.IDs(), []int64{1, 2}) {
		t.Fatalf("IDs = %v, want [1 2]", g.IDs())
	}
	if to, w := g.Adj(0); !slices.Equal(to, []int32{1}) || !slices.Equal(w, []float64{2}) {
		t.Errorf("Adj(0) = %v %v, want [1] [2]", to, w)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestAdjacencyInEdgeOrder(t *testing.T) {
	g := build(pair{1, 3, 2}, pair{1, 2, 1}, pair{3, 1, 4})
	if !slices.Equal(g.IDs(), []int64{1, 3, 2}) {
		t.Fatalf("IDs = %v, want first-appearance order [1 3 2]", g.IDs())
	}
	if to, w := g.Adj(0); !slices.Equal(to, []int32{1, 2}) || !slices.Equal(w, []float64{6, 1}) {
		t.Errorf("Adj(0) = %v %v, want [1 2] [6 1]", to, w)
	}
	if to, w := g.Adj(2); !slices.Equal(to, []int32{0}) || !slices.Equal(w, []float64{1}) {
		t.Errorf("Adj(2) = %v %v, want [0] [1]", to, w)
	}
	if g.degree[0] != 7 {
		t.Errorf("degree of 1 = %g, want 7", g.degree[0])
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		var pairs []pair
		for range rng.Intn(150) {
			pairs = append(pairs, pair{int64(rng.Intn(n)), int64(rng.Intn(n)), 1 + rng.Float64()*10})
		}
		g := build(pairs...)
		if g.NumVertices() == 0 {
			return true // no usable edge, so no vertex to rank
		}
		sum := 0.0
		for _, v := range g.PageRank(PageRankOptions{}) {
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
	const n = 10
	var ring []pair
	for i := 0; i < n; i++ {
		ring = append(ring, pair{int64(i), int64((i + 1) % n), 1})
	}
	g := build(ring...)
	for i, v := range g.PageRank(PageRankOptions{}) {
		if math.Abs(v-1.0/n) > 1e-9 {
			t.Errorf("ring vertex %d rank %g, want %g", g.IDs()[i], v, 1.0/n)
		}
	}
}

func TestPageRankHubOutranksLeaves(t *testing.T) {
	var star []pair
	for i := int64(1); i <= 8; i++ {
		star = append(star, pair{0, i, 1})
	}
	g := build(star...)
	pr := g.PageRank(PageRankOptions{})
	for i := 1; i <= 8; i++ {
		if pr[0] <= pr[i] {
			t.Fatalf("hub rank %g not above leaf %g", pr[0], pr[i])
		}
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	if got := FromEdges(nil).PageRank(PageRankOptions{}); len(got) != 0 {
		t.Errorf("empty-graph PageRank = %v", got)
	}
}

func TestLabelPropagationSeedsFixed(t *testing.T) {
	g := build(pair{1, 2, 1}, pair{2, 3, 1})
	seeds := map[int64]int{1: 1, 3: 0}
	out := g.LabelPropagation(seeds, 2, LabelPropOptions{})
	if rowOf(g, out, 2, 1)[1] != 1 || rowOf(g, out, 2, 3)[0] != 1 {
		t.Errorf("seed rows changed: %v %v", rowOf(g, out, 2, 1), rowOf(g, out, 2, 3))
	}
	// Vertex 2 sits between a churner and a non-churner: close to 0.5.
	if p := rowOf(g, out, 2, 2)[1]; math.Abs(p-0.5) > 1e-6 {
		t.Errorf("middle vertex churn prob = %g, want 0.5", p)
	}
}

func TestLabelPropagationTwoClusters(t *testing.T) {
	// Cluster A: 0-4 with seed churner 0; cluster B: 10-14 with seed stable 10.
	var pairs []pair
	for i := int64(0); i < 4; i++ {
		pairs = append(pairs, pair{i, i + 1, 5}, pair{i + 10, i + 11, 5})
	}
	pairs = append(pairs, pair{4, 10, 0.01}) // weak bridge
	g := build(pairs...)
	out := g.LabelPropagation(map[int64]int{0: 1, 14: 0}, 2, LabelPropOptions{})
	if p := rowOf(g, out, 2, 2)[1]; p < 0.8 {
		t.Errorf("cluster-A member churn prob %g, want high", p)
	}
	if p := rowOf(g, out, 2, 12)[1]; p > 0.2 {
		t.Errorf("cluster-B member churn prob %g, want low", p)
	}
}

func TestLabelPropagationSimplexProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		var pairs []pair
		for range n * 2 {
			pairs = append(pairs, pair{int64(rng.Intn(n)), int64(rng.Intn(n)), rng.Float64()*4 + 0.1})
		}
		g := build(pairs...)
		k := 2 + rng.Intn(3)
		out := g.LabelPropagation(map[int64]int{0: 1, 1: 0}, k, LabelPropOptions{})
		if len(out) != k*g.NumVertices() {
			return false
		}
		for i := range g.IDs() {
			sum := 0.0
			for _, p := range out[i*k : (i+1)*k] {
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

func TestValidateDetectsBrokenInvariant(t *testing.T) {
	g := build(pair{1, 2, 1})
	// Break symmetry by hand.
	g.w[0] = 99
	if err := g.Validate(); err == nil {
		t.Error("Validate should catch asymmetric edge")
	}
}

// addDistinctEdges is the one-edge-at-a-time build FromEdges replaced: an
// edge numbers each endpoint it is the first to touch, appends a half edge
// to both endpoints' lists and adds its weight to both degrees; self-loops
// and weights that are not finite and positive are skipped.
func addDistinctEdges(ids []int64, edges []Edge) (order []int64, adj [][]half, degree []float64) {
	index := map[int64]int{}
	ensure := func(u int32) int {
		i, ok := index[ids[u]]
		if !ok {
			i = len(order)
			index[ids[u]] = i
			order, adj, degree = append(order, ids[u]), append(adj, nil), append(degree, 0)
		}
		return i
	}
	for _, e := range edges {
		if e.U == e.V || !(e.W > 0) || math.IsInf(e.W, 1) {
			continue
		}
		a, b := ensure(e.U), ensure(e.V)
		adj[a], degree[a] = append(adj[a], half{b, e.W}), degree[a]+e.W
		adj[b], degree[b] = append(adj[b], half{a, e.W}), degree[b]+e.W
	}
	return order, adj, degree
}

type half struct {
	to int
	w  float64
}

// TestFromEdgesMatchesAddDistinctEdge pins the bulk constructor to the
// one-edge-at-a-time build it replaced: vertex numbering, adjacency order
// and degree bits, with the edge list split into runs at arbitrary points,
// ids no edge uses, and the self-loops and non-positive or non-finite
// weights both skip.
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
	edges = append(edges, Edge{U: 3, V: 4, W: 0}, Edge{U: 5, V: 6, W: -1}, Edge{U: 13, V: 13, W: 2},
		Edge{U: 7, V: 8, W: math.NaN()}, Edge{U: 9, V: 10, W: math.Inf(1)}, Edge{U: 11, V: 12, W: math.Inf(-1)})
	order, adj, degree := addDistinctEdges(ids, edges)
	got := FromEdges(ids, edges[:10], nil, edges[10:37], edges[37:])
	if !slices.Equal(got.IDs(), order) {
		t.Fatalf("vertex order %v, want %v", got.IDs(), order)
	}
	for i := range order {
		to, w := got.Adj(i)
		if len(to) != len(adj[i]) {
			t.Fatalf("vertex %d: %d neighbours, want %d", order[i], len(to), len(adj[i]))
		}
		for k, h := range adj[i] {
			if int(to[k]) != h.to || math.Float64bits(w[k]) != math.Float64bits(h.w) {
				t.Fatalf("vertex %d slot %d: (%d, %v), want (%d, %v)", order[i], k, to[k], w[k], h.to, h.w)
			}
		}
		if math.Float64bits(got.degree[i]) != math.Float64bits(degree[i]) {
			t.Fatalf("vertex %d: degree %v, want %v", order[i], got.degree[i], degree[i])
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFromUpperMatchesFromEdges pins the row-run constructor to the edge
// list build on all five arrays: random upper-triangular lists over
// ascending ids, split into runs at arbitrary rows (empty runs and rows
// without edges among them), with skipped weights, at several worker
// counts, every build but the first in the arrays of the one before it
// (larger or smaller than it needs). Every vertex it makes has a neighbour and a positive degree, the
// contract PageRank and label propagation rely on.
func TestFromUpperMatchesFromEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bad := []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
	var last *Graph // every build after the first reuses the one before it
	for trial := range 40 {
		n := rng.Intn(80)
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(100 + 3*i)
		}
		density := 1 + rng.Intn(8)
		var edges []Edge
		lens := make([]int32, n)
		for r := range n {
			for c := r + 1; c < n; c++ {
				if rng.Intn(density*3) != 0 {
					continue
				}
				w := float64(1+rng.Intn(5)) + rng.Float64()
				if rng.Intn(20) == 0 {
					w = bad[rng.Intn(len(bad))]
				}
				edges = append(edges, Edge{U: int32(r), V: int32(c), W: w})
				lens[r]++
			}
		}
		// Cut the rows into runs at random points.
		var runs []Rows[float64]
		row, k := 0, 0
		for row < n || len(runs) == 0 {
			m := min(rng.Intn(12), n-row)
			e := 0
			for _, l := range lens[row : row+m] {
				e += int(l)
			}
			run := Rows[float64]{Len: lens[row : row+m], Col: make([]int32, e), W: make([]float64, e)}
			for j := range e {
				run.Col[j], run.W[j] = edges[k+j].V, edges[k+j].W
			}
			runs = append(runs, run)
			row, k = row+m, k+e
		}
		want := FromEdges(ids, edges)
		for _, workers := range []int{1, 2, 7} {
			got := FromUpper(ids, runs, workers, last)
			last = got
			if err := SameArrays(want, got); err != nil {
				t.Fatalf("trial %d (%d ids, %d edges, %d runs) workers=%d: %v", trial, n, len(edges), len(runs), workers, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			for v := range got.NumVertices() {
				if to, _ := got.Adj(v); len(to) == 0 || !(got.degree[v] > 0) {
					t.Fatalf("trial %d: vertex %d has %d neighbours and degree %v", trial, got.ids[v], len(to), got.degree[v])
				}
			}
		}
	}
}

func TestFromUpperRejectsEdgeBelowDiagonal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromUpper accepted an edge below the diagonal")
		}
	}()
	FromUpper([]int64{1, 2}, []Rows[float64]{{Len: []int32{0, 1}, Col: []int32{0}, W: []float64{1}}}, 1, nil)
}
