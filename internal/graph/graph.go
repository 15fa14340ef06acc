// Package graph implements the sparse weighted undirected graphs of Section
// 4.1.2 — call graph, message graph and co-occurrence graph — together with
// the two algorithms the paper runs on them: weighted PageRank (Eq. 1) and
// label propagation (the 3-step iteration of Zhu & Ghahramani).
package graph

import (
	"fmt"
	"math"
)

// Graph is an immutable sparse weighted undirected graph over int64 vertex
// IDs (customers keyed by IMSI), stored in compressed sparse row form:
// vertices are densely indexed, and vertex i's half edges are the entries
// off[i]:off[i+1] of to and w. FromEdges is the only constructor.
type Graph struct {
	ids    []int64   // dense index -> vertex ID
	off    []int32   // n+1 offsets into to and w
	to     []int32   // neighbour's dense index, per half edge
	w      []float64 // edge weight, per half edge
	degree []float64 // weighted degree (sum of incident edge weights)
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.ids) }

// IDs returns the vertex IDs by dense index. The slice is shared; do not
// modify.
func (g *Graph) IDs() []int64 { return g.ids }

// Adj returns vertex i's neighbours (by dense index) and edge weights, in
// adjacency order — the order PageRank and label propagation fold them in.
// The slices share the graph's arrays; do not modify.
func (g *Graph) Adj(i int) (to []int32, w []float64) {
	lo, hi := g.off[i], g.off[i+1]
	return g.to[lo:hi:hi], g.w[lo:hi:hi]
}

// usable reports whether w can weigh an edge: finite and positive. A NaN
// or infinite weight would spread through every PageRank and label
// propagation value it reaches.
func usable(w float64) bool { return w > 0 && w <= math.MaxFloat64 }

// Edge is one undirected edge {U, V} of weight W, U and V indexing the
// vertex-id table passed to FromEdges.
type Edge struct {
	U, V int32
	W    float64
}

// FromEdges builds the graph of the edges of runs, taken in order as one
// list of distinct undirected edges; self-loops and weights that are not
// finite and positive are skipped. Vertices are numbered by first
// appearance in that list, each vertex's adjacency lists its edges in list
// order, and its degree sums their weights in that order. The first pass
// numbers the vertices and counts their half edges, the second fills the
// arrays, so nothing is looked up by id. ids must hold distinct ids;
// entries no edge uses are not vertices.
func FromEdges(ids []int64, runs ...[]Edge) *Graph {
	vertex := make([]int32, len(ids)) // ids position -> dense index + 1
	g := &Graph{off: []int32{0}}
	use := func(u int32) {
		if vertex[u] == 0 {
			g.ids = append(g.ids, ids[u])
			g.off = append(g.off, 0)
			vertex[u] = int32(len(g.ids))
		}
		g.off[vertex[u]]++
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
	halves := 0
	for i := range n {
		halves += int(g.off[i+1])
		if halves > math.MaxInt32 {
			panic("graph: more than MaxInt32 half edges")
		}
		g.off[i+1] = int32(halves)
	}
	g.to = make([]int32, halves)
	g.w = make([]float64, halves)
	g.degree = make([]float64, n)
	next := append([]int32(nil), g.off[:n]...) // per vertex: its next free slot
	for _, run := range runs {
		for _, e := range run {
			if e.U == e.V || !usable(e.W) {
				continue
			}
			a, b := vertex[e.U]-1, vertex[e.V]-1
			g.to[next[a]], g.w[next[a]] = b, e.W
			next[a]++
			g.degree[a] += e.W
			g.to[next[b]], g.w[next[b]] = a, e.W
			next[b]++
			g.degree[b] += e.W
		}
	}
	return g
}

// Validate checks structural invariants: symmetric adjacency, positive
// weights, consistent degrees.
func (g *Graph) Validate() error {
	for i := range g.ids {
		to, w := g.Adj(i)
		deg := 0.0
		for k, j := range to {
			if !usable(w[k]) {
				return fmt.Errorf("graph: weight %v on edge %d-%d", w[k], i, j)
			}
			if int(j) == i {
				return fmt.Errorf("graph: self-loop at %d", i)
			}
			deg += w[k]
			// Symmetry.
			found := false
			back, bw := g.Adj(int(j))
			for kb, b := range back {
				if int(b) == i && bw[kb] == w[k] {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph: asymmetric edge %d-%d", i, j)
			}
		}
		if diff := deg - g.degree[i]; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("graph: degree mismatch at %d: %g vs %g", i, deg, g.degree[i])
		}
	}
	return nil
}
