package graph

import (
	"math"

	"telcochurn/internal/parallel"
)

// LabelPropOptions configures label propagation.
type LabelPropOptions struct {
	// MaxIters bounds the number of sweeps (default 30).
	MaxIters int
	// Tolerance stops iteration when per-vertex L1 change falls below it
	// (default 1e-6).
	Tolerance float64
	// Workers caps sweep parallelism; 0 means GOMAXPROCS. The result is
	// bit-identical for any value.
	Workers int
}

func (o LabelPropOptions) withDefaults() LabelPropOptions {
	if o.MaxIters == 0 {
		o.MaxIters = 30
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-6
	}
	return o
}

// LabelPropagation runs the paper's 3-step iteration (Section 4.1.2):
//
//  1. Y <- W Y
//  2. row-normalize Y
//  3. clamp the seed rows, repeat until convergence
//
// generalized to C classes. seeds maps vertex ID to class (0..C-1); those
// rows are fixed to one-hot throughout. Unlabeled vertices start uniform.
// The result holds every vertex's class-probability vector by dense index:
// vertex i's is [i*C, (i+1)*C), in IDs() order.
//
// For churn features C=2 with seeds = last month's churners (class 1) plus a
// sample of stable customers (class 0); for retention features C is the
// number of campaign outcomes.
func (g *Graph) LabelPropagation(seeds map[int64]int, numClasses int, opts LabelPropOptions) []float64 {
	opts = opts.withDefaults()
	n := g.NumVertices()
	if n == 0 || numClasses == 0 {
		return nil
	}

	// Row i of y and next is [i*C, (i+1)*C): one flat array each, so the
	// sweep's gather reads neighbours' rows without a pointer hop.
	C := numClasses
	uniform := 1.0 / float64(C)
	y := make([]float64, n*C)
	fixed := make([]bool, n) // seed rows
	for i, id := range g.ids {
		row := y[i*C : (i+1)*C]
		if cls, ok := seeds[id]; ok && cls >= 0 && cls < C {
			row[cls] = 1
			fixed[i] = true
		} else {
			for c := range row {
				row[c] = uniform
			}
		}
	}

	if C == 2 {
		return g.twoClass(y, fixed, opts)
	}
	next := make([]float64, n*C)

	// The sweep is already a gather (row i reads y, writes only its row of
	// next), so rows parallelize freely across the double buffers;
	// per-chunk deltas merge in chunk order, keeping the result
	// bit-identical for any Workers. Each product is rounded before it is
	// added (the float64 conversions), so no host fuses the two.
	for iter := 0; iter < opts.MaxIters; iter++ {
		delta := parallel.SumChunks(opts.Workers, n, vertexGrain, func(lo, hi int) float64 {
			dl := 0.0
			for i := lo; i < hi; i++ {
				to, w := g.Adj(i)
				row, old := next[i*C:(i+1)*C], y[i*C:(i+1)*C]
				if fixed[i] {
					copy(row, old)
					continue
				}
				// Step 1, Y <- W Y restricted to row i.
				clear(row)
				for k, t := range to {
					src := y[int(t)*C : (int(t)+1)*C]
					for c := range row {
						row[c] += float64(w[k] * src[c])
					}
				}
				// Step 2: row-normalize.
				sum := 0.0
				for _, v := range row {
					sum += v
				}
				if sum > 0 {
					for c := range row {
						row[c] /= sum
					}
				} else {
					for c := range row {
						row[c] = uniform
					}
				}
				for c := range row {
					diff := row[c] - old[c]
					if diff < 0 {
						diff = -diff
					}
					dl += diff
				}
			}
			return dl
		})
		y, next = next, y
		if delta < opts.Tolerance*float64(n) {
			break
		}
	}

	return y
}

// twoClass runs the sweeps of LabelPropagation for the churn features' two
// classes from the flat start rows y: the same products, summed in the
// same edge order, and the same normalization and delta as the general
// sweep, bit for bit, over rows held as pairs so that each neighbour's row
// is one load and one bounds check. The rows are copied back flat at the
// end.
func (g *Graph) twoClass(flat []float64, fixed []bool, opts LabelPropOptions) []float64 {
	n := len(fixed)
	y, next := make([][2]float64, n), make([][2]float64, n)
	for i := range y {
		y[i] = [2]float64{flat[2*i], flat[2*i+1]}
	}
	off, to, wt := g.off, g.to, g.w
	for iter := 0; iter < opts.MaxIters; iter++ {
		cur, nxt := y, next
		delta := parallel.SumChunks(opts.Workers, n, vertexGrain, func(lo, hi int) float64 {
			dl := 0.0
			for i := lo; i < hi; i++ {
				old := cur[i]
				if fixed[i] {
					nxt[i] = old
					continue
				}
				a, b := off[i], off[i+1]
				r0, r1 := gather2(cur, to[a:b], wt[a:b])
				if sum := r0 + r1; sum > 0 {
					r0, r1 = r0/sum, r1/sum
				} else {
					r0, r1 = 0.5, 0.5
				}
				nxt[i] = [2]float64{r0, r1}
				dl += math.Abs(r0 - old[0])
				dl += math.Abs(r1 - old[1])
			}
			return dl
		})
		y, next = next, y
		if delta < opts.Tolerance*float64(n) {
			break
		}
	}
	for i, row := range y {
		flat[2*i], flat[2*i+1] = row[0], row[1]
	}
	return flat
}

// gather2 is step 1, Y <- W Y, for one two-class row: the sums over the
// adjacency adj, weights w, of each neighbour's row times the edge weight,
// each product rounded before it is added. It is a function of its own so
// that the loop keeps its few values in registers.
//
//go:noinline
func gather2(y [][2]float64, adj []int32, w []float64) (r0, r1 float64) {
	w = w[:len(adj)]
	for k, t := range adj {
		p := &y[t]
		r0 += float64(w[k] * p[0])
		r1 += float64(w[k] * p[1])
	}
	return r0, r1
}
