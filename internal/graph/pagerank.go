package graph

import "telcochurn/internal/parallel"

// vertexGrain is the chunk size for per-vertex parallel sweeps. Chunk
// boundaries depend only on the vertex count, so chunked reductions (the
// convergence delta) merge in the same order for any worker count.
const vertexGrain = 512

// PageRankOptions configures the weighted PageRank iteration of Eq. (1).
type PageRankOptions struct {
	// Damping is the paper's d (default 0.85).
	Damping float64
	// MaxIters bounds the number of sweeps (default 50).
	MaxIters int
	// Tolerance stops iteration when the L1 change per vertex falls below it
	// (default 1e-9).
	Tolerance float64
	// Workers caps sweep parallelism; 0 means GOMAXPROCS. The result is
	// bit-identical for any value.
	Workers int
}

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.MaxIters == 0 {
		o.MaxIters = 50
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-9
	}
	return o
}

// PageRank computes the weighted PageRank of Eq. (1):
//
//	x_m = (1-d)/N + d * sum_{n in N(m)} x_n * w_{m,n} / deg(n)
//
// on the undirected graph, where deg(n) is n's weighted degree. The initial
// value is 1/N for every vertex (the paper initializes to 1; the fixed point
// is identical up to normalization, and we keep sum(x) = 1 so ranks are
// comparable across graphs of different sizes). FromUpper makes a vertex
// only of an id some usable edge touches, so every degree is positive and
// there is no dangling mass to redistribute.
//
// Each sweep is a gather: vertex m reads the previous iteration's scores of
// its neighbors from the front buffer and writes only next[m] in the back
// buffer, so vertices parallelize freely, and each vertex sums its adjacency
// list in a fixed order — the scores are bit-identical for any Workers.
// Each product is rounded before it is added (the float64 conversions), so
// no host fuses the two and every host computes the same bits.
//
// Returns the ranks by dense index, in IDs() order.
func (g *Graph) PageRank(opts PageRankOptions) []float64 {
	opts = opts.withDefaults()
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	d := opts.Damping
	inv := 1.0 / float64(n)
	x := make([]float64, n)
	next := make([]float64, n)
	share := make([]float64, n) // x[j] / degree[j], formed once per sweep
	for i := range x {
		x[i] = inv
	}
	base := (1 - d) * inv
	for iter := 0; iter < opts.MaxIters; iter++ {
		// Form each vertex's share x/deg (a chunked sweep with nothing to
		// sum); share*w in the gather is x/deg*w evaluated left to right,
		// bit for bit.
		parallel.SumChunks(opts.Workers, n, vertexGrain, func(lo, hi int) float64 {
			for i := lo; i < hi; i++ {
				share[i] = x[i] / g.degree[i]
			}
			return 0
		})
		delta := parallel.SumChunks(opts.Workers, n, vertexGrain, func(lo, hi int) float64 {
			dl := 0.0
			for i := lo; i < hi; i++ {
				to, w := g.Adj(i)
				sum := 0.0
				for k, t := range to {
					sum += float64(share[t] * w[k])
				}
				v := base + float64(d*sum)
				next[i] = v
				diff := v - x[i]
				if diff < 0 {
					diff = -diff
				}
				dl += diff
			}
			return dl
		})
		x, next = next, x
		if delta < opts.Tolerance*float64(n) {
			break
		}
	}
	return x
}
