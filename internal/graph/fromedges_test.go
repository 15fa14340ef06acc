package graph

import (
	"fmt"
	"math"
	"slices"
)

// Edge is one undirected edge {U, V} of weight W, U and V indexing the
// vertex-id table passed to FromEdges.
type Edge struct {
	U, V int32
	W    float64
}

// FromEdges is the reference build FromUpper must match array for array,
// over an edge list in any order: it builds the graph of the edges of runs,
// taken in order as one list of distinct undirected edges; self-loops and weights that are not
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

// SameArrays returns an error naming the first of the five arrays on which
// a and b differ, weights and degrees compared bit for bit; nil if none.
func SameArrays(a, b *Graph) error {
	bits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	switch {
	case !slices.Equal(a.ids, b.ids):
		return fmt.Errorf("ids differ: %d vs %d vertices", len(a.ids), len(b.ids))
	case !slices.Equal(a.off, b.off):
		return fmt.Errorf("off differs")
	case !slices.Equal(a.to, b.to):
		return fmt.Errorf("to differs: %d vs %d half edges", len(a.to), len(b.to))
	case !bits(a.w, b.w):
		return fmt.Errorf("w differs")
	case !bits(a.degree, b.degree):
		return fmt.Errorf("degree differs")
	}
	return nil
}
