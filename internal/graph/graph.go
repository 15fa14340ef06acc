// Package graph implements the sparse weighted undirected graphs of Section
// 4.1.2 — call graph, message graph and co-occurrence graph — together with
// the two algorithms the paper runs on them: weighted PageRank (Eq. 1) and
// label propagation (the 3-step iteration of Zhu & Ghahramani).
package graph

import (
	"fmt"
	"math"

	"telcochurn/internal/parallel"
)

// Graph is an immutable sparse weighted undirected graph over int64 vertex
// IDs (customers keyed by IMSI), stored in compressed sparse row form:
// vertices are densely indexed, and vertex i's half edges are the entries
// off[i]:off[i+1] of to and w. FromUpper is the only constructor.
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

// Weight is the type of an edge weight as FromUpper takes it: a count,
// such as the cubes two customers share, or a sum. The graph holds every
// weight as a float64.
type Weight interface{ int32 | float64 }

// Rows is a run of consecutive rows of an upper-triangular edge list: its
// i-th row holds Len[i] edges, stored one row after another in Col (the
// other endpoint's row, which lies above the row's own) and W (the weight).
type Rows[W Weight] struct {
	Len []int32
	Col []int32
	W   []W
}

// FromUpper builds the graph of the edge list runs hold. The runs cover
// the rows 0..len(ids)-1 in order, row r standing for ids[r]; row r's
// edges are {r, Col[k]} of weight W[k], every Col above r; and the list is
// the edges row by row, each row's in stored order. With ids ascending and
// every row's Col ascending, that is the sorted (min-id, max-id) list.
// Edges whose weight is not finite and positive are skipped. Vertices are
// numbered by first appearance in the list, a vertex's adjacency lists its
// edges in list order (those of the rows below it, then its own row's),
// and its degree sums their weights in that order. ids must hold distinct
// ids; ids no edge uses are not vertices.
//
// Nothing is looked up by id and nothing is sorted. One pass over each run
// counts every row's edges and every vertex's edges from the run's rows; a
// walk in list order numbers the vertices, and prefix sums fix where each
// row writes its own edges and where each run writes the transposed ones.
// The runs then fill the arrays side by side on up to workers goroutines
// (0 = GOMAXPROCS), and the graph does not depend on workers.
func FromUpper[W Weight](ids []int64, runs []Rows[W], workers int) *Graph {
	n := len(ids)
	first := make([]int, len(runs)+1) // run i holds rows first[i]:first[i+1]
	for i, run := range runs {
		first[i+1] = first[i] + len(run.Len)
	}
	if first[len(runs)] != n {
		panic(fmt.Sprintf("graph: runs hold %d rows for %d ids", first[len(runs)], n))
	}
	// eachRow calls fn with every row of run i and that row's edges.
	eachRow := func(i int, fn func(r int, col []int32, w []W)) {
		run, k := runs[i], 0
		for d, l := range run.Len {
			end := k + int(l)
			col := run.Col[k:end]
			fn(first[i]+d, col, run.W[k:end][:len(col)])
			k = end
		}
	}

	// Count: own[r] is row r's edges, below[i][v] vertex v's edges from run
	// i's rows; skipped edges count nowhere.
	own := make([]int32, n)
	below := make([][]int32, len(runs))
	parallel.ForGrain(workers, len(runs), 1, func(i int) {
		count := make([]int32, n)
		eachRow(i, func(r int, col []int32, w []W) {
			for k, c := range col {
				if int(c) <= r {
					panic(fmt.Sprintf("graph: edge %d-%d is not above the diagonal", r, c))
				}
				if usable(float64(w[k])) {
					own[r]++
					count[c]++
				}
			}
		})
		below[i] = count
	})

	// Number: a row with edges numbers itself at its first one (unless an
	// edge from below already has), then each endpoint not seen before.
	number := make([]int32, n) // per row: 1 + its vertex number, 0 if none yet
	var rowOf []int32          // per vertex: its row
	for i := range runs {
		eachRow(i, func(r int, col []int32, w []W) {
			if own[r] == 0 {
				return
			}
			if number[r] == 0 {
				rowOf = append(rowOf, int32(r))
				number[r] = int32(len(rowOf))
			}
			for k, c := range col {
				if number[c] == 0 && usable(float64(w[k])) {
					rowOf = append(rowOf, c)
					number[c] = int32(len(rowOf))
				}
			}
		})
	}

	// Place: vertex v's half edges are the transposed ones run by run, then
	// its own row's. below[i][r] and own[r] become where they start.
	nv := len(rowOf)
	g := &Graph{ids: make([]int64, nv), off: make([]int32, nv+1)}
	halves := 0
	for v, r := range rowOf {
		g.ids[v] = ids[r]
		for _, count := range below {
			c := int(count[r])
			count[r] = int32(halves)
			halves += c
		}
		c := int(own[r])
		own[r] = int32(halves)
		halves += c
		if halves > math.MaxInt32 {
			panic("graph: more than MaxInt32 half edges")
		}
		g.off[v+1] = int32(halves)
	}

	// Fill: each run writes its rows' own half edges and, at the next free
	// slot of its share of each endpoint's lower half, the transposed ones.
	to, wt := make([]int32, halves), make([]float64, halves)
	parallel.ForGrain(workers, len(runs), 1, func(i int) {
		at := below[i]
		eachRow(i, func(r int, col []int32, w []W) {
			u, p := number[r]-1, own[r]
			for k, c := range col {
				x := float64(w[k])
				if !usable(x) {
					continue
				}
				to[p], wt[p] = number[c]-1, x
				p++
				q := at[c]
				to[q], wt[q] = u, x
				at[c] = q + 1
			}
		})
	})
	off, degree := g.off, make([]float64, nv)
	parallel.ForGrain(workers, nv, vertexGrain, func(v int) {
		d := 0.0
		for _, w := range wt[off[v]:off[v+1]] {
			d += w
		}
		degree[v] = d
	})
	g.to, g.w, g.degree = to, wt, degree
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
