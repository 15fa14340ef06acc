// Package graph implements the sparse weighted undirected graphs of Section
// 4.1.2 — call graph, message graph and co-occurrence graph — together with
// the two algorithms the paper runs on them: weighted PageRank (Eq. 1) and
// label propagation (the 3-step iteration of Zhu & Ghahramani).
package graph

import (
	"fmt"
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

// AddEdge adds weight w to the undirected edge {a, b}. Adding the same pair
// again accumulates weight (the paper's edge weights are accumulated call
// seconds / message counts / co-occurrence counts). Self-loops are ignored.
func (g *Graph) AddEdge(a, b int64, w float64) {
	if a == b || w <= 0 {
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
	if a == b || w <= 0 {
		return
	}
	ai, bi := g.ensure(a), g.ensure(b)
	g.adj[ai] = append(g.adj[ai], halfEdge{to: bi, weight: w})
	g.degree[ai] += w
	g.adj[bi] = append(g.adj[bi], halfEdge{to: ai, weight: w})
	g.degree[bi] += w
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
			if e.weight <= 0 {
				return fmt.Errorf("graph: non-positive weight on edge %d-%d", i, e.to)
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
