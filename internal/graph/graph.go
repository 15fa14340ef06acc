// Package graph implements the sparse weighted undirected graphs of Section
// 4.1.2 — call graph, message graph and co-occurrence graph — together with
// the two algorithms the paper runs on them: weighted PageRank (Eq. 1) and
// label propagation (the 3-step iteration of Zhu & Ghahramani).
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Graph is a sparse weighted undirected graph over int64 vertex IDs
// (customers keyed by IMSI). Internally vertices are densely indexed;
// adjacency is stored as index-sorted edge lists.
type Graph struct {
	ids    []int64       // dense index -> vertex ID
	index  map[int64]int // vertex ID -> dense index
	adj    [][]halfEdge  // adjacency lists
	degree []float64     // weighted degree (sum of incident edge weights)
}

type halfEdge struct {
	to     int
	weight float64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[int64]int)}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.ids) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, a := range g.adj {
		n += len(a)
	}
	return n / 2
}

// IDs returns the vertex IDs in insertion order. The slice is shared; do not
// modify.
func (g *Graph) IDs() []int64 { return g.ids }

// ensure returns the dense index for id, adding the vertex if new.
func (g *Graph) ensure(id int64) int {
	if i, ok := g.index[id]; ok {
		return i
	}
	i := len(g.ids)
	g.index[id] = i
	g.ids = append(g.ids, id)
	g.adj = append(g.adj, nil)
	g.degree = append(g.degree, 0)
	return i
}

// AddVertex adds an isolated vertex (no-op if present).
func (g *Graph) AddVertex(id int64) { g.ensure(id) }

// usable reports whether w can weigh an edge: finite and positive. A NaN
// or infinite weight would spread through every PageRank and label
// propagation value it reaches.
func usable(w float64) bool { return w > 0 && w <= math.MaxFloat64 }

// AddEdge adds weight w to the undirected edge {a, b}. Adding the same pair
// again accumulates weight (the paper's edge weights are accumulated call
// seconds / message counts / co-occurrence counts). Self-loops and weights
// that are not finite and positive are ignored.
func (g *Graph) AddEdge(a, b int64, w float64) {
	if a == b || !usable(w) {
		return
	}
	ai, bi := g.ensure(a), g.ensure(b)
	g.addHalf(ai, bi, w)
	g.addHalf(bi, ai, w)
}

// AddDistinctEdge is AddEdge for a pair the caller guarantees it adds at
// most once (an already aggregated edge list): it appends the two half
// edges without AddEdge's linear scan for an existing one, which on the
// dense co-occurrence graph is most of the cost of building it. Vertex
// numbering, adjacency order and degree sums are those AddEdge would give.
func (g *Graph) AddDistinctEdge(a, b int64, w float64) {
	if a == b || !usable(w) {
		return
	}
	ai, bi := g.ensure(a), g.ensure(b)
	g.adj[ai] = append(g.adj[ai], halfEdge{to: bi, weight: w})
	g.degree[ai] += w
	g.adj[bi] = append(g.adj[bi], halfEdge{to: ai, weight: w})
	g.degree[bi] += w
}

// Edge is one undirected edge {U, V} of weight W, U and V indexing the
// vertex-id table passed to FromEdges.
type Edge struct {
	U, V int32
	W    float64
}

// FromEdges builds the graph that calling AddDistinctEdge(ids[e.U],
// ids[e.V], e.W) for every edge of runs, in order, would build — the same
// vertex numbering (first appearance), adjacency order and degree sums —
// in two passes that size every adjacency list exactly and look up no
// vertex by id. ids must hold distinct ids; entries no edge uses are not
// vertices.
func FromEdges(ids []int64, runs ...[]Edge) *Graph {
	vertex := make([]int32, len(ids)) // ids position -> dense index + 1
	g := &Graph{}
	var halves []int // per dense index
	use := func(u int32) {
		if vertex[u] == 0 {
			g.ids = append(g.ids, ids[u])
			halves = append(halves, 0)
			vertex[u] = int32(len(g.ids))
		}
		halves[vertex[u]-1]++
	}
	for _, run := range runs {
		for _, e := range run {
			if e.U == e.V || !usable(e.W) {
				continue
			}
			use(e.U)
			use(e.V)
		}
	}
	n := len(g.ids)
	g.index = make(map[int64]int, n)
	g.adj = make([][]halfEdge, n)
	g.degree = make([]float64, n)
	for i, id := range g.ids {
		g.index[id] = i
		// One exact-size list per vertex rather than one shared backing
		// array: small lists fit the spans earlier garbage freed, where one
		// allocation of every half-edge would grow the heap (peak RSS).
		g.adj[i] = make([]halfEdge, 0, halves[i])
	}
	for _, run := range runs {
		for _, e := range run {
			if e.U == e.V || !usable(e.W) {
				continue
			}
			a, b := int(vertex[e.U]-1), int(vertex[e.V]-1)
			g.adj[a] = append(g.adj[a], halfEdge{to: b, weight: e.W})
			g.degree[a] += e.W
			g.adj[b] = append(g.adj[b], halfEdge{to: a, weight: e.W})
			g.degree[b] += e.W
		}
	}
	return g
}

// Adjacent returns id's neighbors and edge weights in adjacency order —
// the order PageRank and label propagation fold them in.
func (g *Graph) Adjacent(id int64) (to []int64, weights []float64) {
	i, ok := g.index[id]
	if !ok {
		return nil, nil
	}
	for _, e := range g.adj[i] {
		to = append(to, g.ids[e.to])
		weights = append(weights, e.weight)
	}
	return to, weights
}

func (g *Graph) addHalf(from, to int, w float64) {
	for i := range g.adj[from] {
		if g.adj[from][i].to == to {
			g.adj[from][i].weight += w
			g.degree[from] += w
			return
		}
	}
	g.adj[from] = append(g.adj[from], halfEdge{to: to, weight: w})
	g.degree[from] += w
}

// EdgeWeight returns the weight of edge {a, b} (0 if absent).
func (g *Graph) EdgeWeight(a, b int64) float64 {
	ai, ok := g.index[a]
	if !ok {
		return 0
	}
	bi, ok := g.index[b]
	if !ok {
		return 0
	}
	for _, e := range g.adj[ai] {
		if e.to == bi {
			return e.weight
		}
	}
	return 0
}

// Degree returns the weighted degree of vertex id (0 if absent).
func (g *Graph) Degree(id int64) float64 {
	i, ok := g.index[id]
	if !ok {
		return 0
	}
	return g.degree[i]
}

// Neighbors returns the neighbor IDs of id, sorted ascending.
func (g *Graph) Neighbors(id int64) []int64 {
	i, ok := g.index[id]
	if !ok {
		return nil
	}
	out := make([]int64, len(g.adj[i]))
	for j, e := range g.adj[i] {
		out[j] = g.ids[e.to]
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Has reports whether vertex id exists.
func (g *Graph) Has(id int64) bool {
	_, ok := g.index[id]
	return ok
}

// Validate checks structural invariants: symmetric adjacency, positive
// weights, consistent degrees.
func (g *Graph) Validate() error {
	for i, edges := range g.adj {
		deg := 0.0
		for _, e := range edges {
			if !usable(e.weight) {
				return fmt.Errorf("graph: weight %v on edge %d-%d", e.weight, i, e.to)
			}
			if e.to == i {
				return fmt.Errorf("graph: self-loop at %d", i)
			}
			deg += e.weight
			// Symmetry.
			found := false
			for _, back := range g.adj[e.to] {
				if back.to == i && back.weight == e.weight {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph: asymmetric edge %d-%d", i, e.to)
			}
		}
		if diff := deg - g.degree[i]; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("graph: degree mismatch at %d: %g vs %g", i, deg, g.degree[i])
		}
	}
	return nil
}
