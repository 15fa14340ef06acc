package features

import (
	"cmp"
	"slices"

	"telcochurn/internal/graph"
	"telcochurn/internal/parallel"
)

// The one graph fold: GraphAccumulator turns raw call, message and location
// rows into the three graphs of Section 4.1.2 for every build path. The
// whole-window builds (AddGraphFeatures, BuildGraphs) are its one-shard
// case, so F4-F6 are bit-identical whichever path, warehouse layout, shard
// count or worker count produced them.
//
// Edge insertion order fixes the adjacency fold order of PageRank and label
// propagation, and row order depends on how rows were partitioned, so the
// fold never lets row order reach the graph. It is sort + run-length over
// flat records: per shard the observations are sorted and reduced to
// partials whose merge is order-independent, and Finalize materializes each
// graph canonically — edges inserted in sorted (min-id, max-id) order,
// vertices numbered by first appearance in that list, every weight reduced
// in one fixed order.
//
// Why the partials merge exactly:
//
//   - Call/message partials are per-DIRECTED-edge sums. A caller's rows live
//     in the caller's shard in original row order, and the sort is stable, so
//     each directed sum adds the same values in the same order whatever the
//     shard count; the undirected weight is forward + reverse, (min-id →
//     max-id) first.
//   - Co-occurrence cube membership keeps the cooccurrenceCubeCap smallest
//     customer ids per cube (a semilattice: the min-k of a union is
//     independent of merge order). Cubes are capped to avoid quadratic
//     blowup on very crowded cells; a cube of c members contributes
//     c(c-1)/2 edges, which preserves the community structure the feature
//     needs.
const cooccurrenceCubeCap = 30

// coocChunks is how many customer chunks the co-occurrence finalize splits
// into: enough to balance two to eight workers over skewed per-customer
// costs.
const coocChunks = 16

// edgeRec is one observation (later: one sum) of the undirected edge
// {lo, hi} in one direction: dir 0 is lo → hi, 1 is hi → lo.
type edgeRec struct {
	lo, hi int64
	dir    int8
	w      float64
}

func directed(from, to int64, w float64) edgeRec {
	if from > to {
		return edgeRec{lo: to, hi: from, dir: 1, w: w}
	}
	return edgeRec{lo: from, hi: to, w: w}
}

func compareEdgeKeys(a, b edgeRec) int {
	if c := cmp.Compare(a.lo, b.lo); c != 0 {
		return c
	}
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	return cmp.Compare(a.dir, b.dir)
}

// foldEdges reduces recs in place to one record per directed edge, sorted
// by (lo, hi, direction). The sort is stable and each run is summed left to
// right from zero, so a sum depends only on the order its own observations
// were appended in.
func foldEdges(recs []edgeRec) []edgeRec {
	slices.SortStableFunc(recs, compareEdgeKeys)
	out := recs[:0]
	for i := 0; i < len(recs); {
		sum := recs[i]
		sum.w = 0
		for ; i < len(recs) && compareEdgeKeys(recs[i], sum) == 0; i++ {
			sum.w += recs[i].w
		}
		out = append(out, sum)
	}
	return out
}

// fix is one sighting of a customer in a spatiotemporal cube (cell × day ×
// time slot, the paper's "within 20 minute and 100x100 meter cube").
type fix struct {
	abs, slot, cell int64 // abs packs month and day
	id              int64
}

func (f fix) sameCube(o fix) bool { return f.abs == o.abs && f.slot == o.slot && f.cell == o.cell }

func compareFixes(a, b fix) int {
	if c := cmp.Compare(a.abs, b.abs); c != 0 {
		return c
	}
	if c := cmp.Compare(a.slot, b.slot); c != 0 {
		return c
	}
	if c := cmp.Compare(a.cell, b.cell); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// capCubes reduces fixes in place to sorted (cube, id) order with repeated
// fixes of one customer dropped and each cube cut to its
// cooccurrenceCubeCap smallest ids.
func capCubes(fixes []fix) []fix {
	slices.SortFunc(fixes, compareFixes)
	out := fixes[:0]
	members := 0 // of the cube out currently ends in
	for _, f := range fixes {
		switch {
		case len(out) == 0 || !f.sameCube(out[len(out)-1]):
			members = 0
		case f.id == out[len(out)-1].id || members == cooccurrenceCubeCap:
			continue
		}
		out = append(out, f)
		members++
	}
	return out
}

// withRoom copies a shard's reduced partial into a buffer with room for
// every row of the table about to be scanned, so a second Feed of one
// shard continues its sums.
func withRoom[T any](partial []T, rows int) []T {
	return append(make([]T, 0, len(partial)+rows), partial...)
}

type graphPartials struct {
	call, msg []edgeRec // foldEdges output
	fixes     []fix     // capCubes output
}

// GraphAccumulator folds raw rows into the F4-F6 graphs. Feed each shard's
// tables (any order, one goroutine per shard is safe — partials are
// per-shard), then Finalize; a whole-window build is one shard.
type GraphAccumulator struct {
	// Workers caps the goroutines Finalize spreads the co-occurrence edge
	// tally over (0 = GOMAXPROCS). The graphs are identical for any value.
	Workers int

	wantCall, wantMsg, wantCooc bool
	parts                       []graphPartials
}

// NewGraphAccumulator sizes an accumulator for the given shard count,
// collecting only the graphs backing the requested groups.
func NewGraphAccumulator(shards int, groups []Group) *GraphAccumulator {
	a := &GraphAccumulator{parts: make([]graphPartials, shards)}
	for _, g := range groups {
		switch g {
		case F4CallGraph:
			a.wantCall = true
		case F5MessageGraph:
			a.wantMsg = true
		case F6CooccurrenceGraph:
			a.wantCooc = true
		}
	}
	return a
}

// Feed accumulates one shard's slice of the raw tables — the only place
// graph building reads them. isCustomer must be the universe-or-previous-
// churner predicate over the FULL merged universe (off-net peers and
// service numbers are not customers), which is why the sharded build
// resolves the universe before loading event tables. Each table's records
// are collected in a slice sized for every row, reduced, and kept as a
// right-sized copy, so an out-of-core run holds only the partials.
func (a *GraphAccumulator) Feed(shard int, tbl Tables, win Window, daysPerMonth int, isCustomer func(int64) bool) {
	p := &a.parts[shard]
	if a.wantCall {
		// Call graph: edge weight = accumulated mutual calling seconds.
		calls := tbl.Calls
		inWin := inWindow(calls, win, daysPerMonth)
		imsi := calls.MustCol("imsi").Ints
		peer := calls.MustCol("peer").Ints
		dur := calls.MustCol("dur").Floats
		success := calls.MustCol("success").Ints
		svc := calls.MustCol("svc").Ints
		recs := withRoom(p.call, calls.NumRows())
		for i := 0; i < calls.NumRows(); i++ {
			if !inWin(i) || success[i] != 1 || svc[i] == 1 || dur[i] <= 0 {
				continue
			}
			if !isCustomer(peer[i]) {
				continue
			}
			recs = append(recs, directed(imsi[i], peer[i], dur[i]))
		}
		p.call = slices.Clone(foldEdges(recs))
	}
	if a.wantMsg {
		// Message graph: edge weight = number of P2P messages.
		msgs := tbl.Messages
		inWin := inWindow(msgs, win, daysPerMonth)
		imsi := msgs.MustCol("imsi").Ints
		peer := msgs.MustCol("peer").Ints
		kind := msgs.MustCol("kind").Ints
		recs := withRoom(p.msg, msgs.NumRows())
		for i := 0; i < msgs.NumRows(); i++ {
			if !inWin(i) || kind[i] != 0 {
				continue
			}
			if !isCustomer(peer[i]) {
				continue
			}
			recs = append(recs, directed(imsi[i], peer[i], 1))
		}
		p.msg = slices.Clone(foldEdges(recs))
	}
	if a.wantCooc {
		// Co-occurrence graph: edge weight = number of cubes two customers
		// share in the window.
		loc := tbl.Locations
		inWin := inWindow(loc, win, daysPerMonth)
		imsi := loc.MustCol("imsi").Ints
		day := loc.MustCol("day").Ints
		month := loc.MustCol("month").Ints
		slot := loc.MustCol("slot").Ints
		cell := loc.MustCol("cell").Ints
		fixes := withRoom(p.fixes, loc.NumRows())
		for i := 0; i < loc.NumRows(); i++ {
			if !inWin(i) || !isCustomer(imsi[i]) {
				continue
			}
			fixes = append(fixes, fix{abs: month[i]*64 + day[i], slot: slot[i], cell: cell[i], id: imsi[i]})
		}
		p.fixes = slices.Clone(capCubes(fixes))
	}
}

// Finalize materializes the requested graphs (nil for groups not
// collected). It leaves the partials untouched, so it may be called again.
func (a *GraphAccumulator) Finalize() (call, msg, cooc *graph.Graph) {
	if a.wantCall {
		call = a.finalizeDirected(func(p *graphPartials) []edgeRec { return p.call })
	}
	if a.wantMsg {
		msg = a.finalizeDirected(func(p *graphPartials) []edgeRec { return p.msg })
	}
	if a.wantCooc {
		cooc = a.finalizeCooccurrence()
	}
	return call, msg, cooc
}

// merged returns one kind of partial over all shards: concatenated in shard
// order and reduced again (so a directed edge fed through several shards
// adds its shard sums in shard order). A single shard's partial is already
// that, and is returned as is rather than copied — the whole-window build
// holds its tables in memory beside this.
func merged[T any](a *GraphAccumulator, sel func(*graphPartials) []T, reduce func([]T) []T) []T {
	if len(a.parts) == 1 {
		return sel(&a.parts[0])
	}
	var all []T
	for i := range a.parts {
		all = append(all, sel(&a.parts[i])...)
	}
	return reduce(all)
}

func (a *GraphAccumulator) finalizeDirected(sel func(*graphPartials) []edgeRec) *graph.Graph {
	all := merged(a, sel, foldEdges)
	g := graph.New()
	for i := 0; i < len(all); {
		e := all[i]
		i++
		if i < len(all) && all[i].lo == e.lo && all[i].hi == e.hi {
			e.w += all[i].w // forward + reverse
			i++
		}
		g.AddDistinctEdge(e.lo, e.hi, e.w)
	}
	return g
}

// finalizeCooccurrence emits the co-occurrence edges customer by customer
// in ascending id, each customer's in ascending co-member id — the sorted
// (min-id, max-id) list — without sorting the fixes by customer or the
// pairs at all. Every id gets a dense rank in ascending id order, and a
// counting sort groups the fixes by rank. A cube's members are sorted, so
// the co-members ranked above fixes[k] are the rest of its cube: a
// customer's are tallied over all their cubes in an array indexed by rank,
// and only the distinct ranks touched are sorted. Customers are
// independent, so chunks of them run across workers and their edge runs
// concatenate in rank order; the result does not depend on the chunking.
func (a *GraphAccumulator) finalizeCooccurrence() *graph.Graph {
	fixes := merged(a, func(p *graphPartials) []fix { return p.fixes }, capCubes)

	ids := make([]int64, len(fixes))
	for k, f := range fixes {
		ids[k] = f.id
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	rank := make([]int32, len(fixes))
	start := make([]int32, len(ids)+1) // fixes of rank r: byRank[start[r]:start[r+1]]
	for k, f := range fixes {
		r, _ := slices.BinarySearch(ids, f.id)
		rank[k] = int32(r)
		start[r+1]++
	}
	for r := range ids {
		start[r+1] += start[r]
	}
	byRank := make([]int32, len(fixes))
	next := slices.Clone(start[:len(ids)])
	for k, r := range rank {
		byRank[next[r]] = int32(k)
		next[r]++
	}
	cubeEnd := make([]int32, len(fixes)) // one past the last fix of k's cube
	for k := len(fixes) - 1; k >= 0; k-- {
		if k+1 < len(fixes) && fixes[k+1].sameCube(fixes[k]) {
			cubeEnd[k] = cubeEnd[k+1]
		} else {
			cubeEnd[k] = int32(k + 1)
		}
	}

	// At most coocChunks chunks (boundaries depend on the id count alone), so
	// the per-chunk tally arrays cost coocChunks × len(ids) at any scale.
	grain := max((len(ids)+coocChunks-1)/coocChunks, 64)
	runs := parallel.MapChunks(a.Workers, len(ids), grain, func(lo, hi int) []graph.Edge {
		var edges []graph.Edge
		count := make([]int32, len(ids)) // co-member rank -> shared cubes
		var touched []int32
		for r := lo; r < hi; r++ {
			touched = touched[:0]
			for _, k := range byRank[start[r]:start[r+1]] {
				for _, o := range rank[k+1 : cubeEnd[k]] {
					if count[o] == 0 {
						touched = append(touched, o)
					}
					count[o]++
				}
			}
			slices.Sort(touched)
			for _, o := range touched {
				edges = append(edges, graph.Edge{U: int32(r), V: o, W: float64(count[o])})
				count[o] = 0
			}
		}
		return edges
	})
	return graph.FromEdges(ids, runs...)
}
