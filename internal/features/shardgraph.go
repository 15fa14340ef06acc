package features

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

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
// fold never lets row order reach the graph. It groups rows rather than
// sorting them: per shard, a hash index (keyIndex) groups the observations
// by edge or by cube as they are scanned, and only what is distinct — the
// edges, each cube's few members, the customer ids — is ever sorted.
// Finalize merges the shard partials and materializes each graph
// canonically: edges inserted in sorted (min-id, max-id) order, vertices
// numbered by first appearance in that list, every weight reduced in one
// fixed order.
//
// Why the partials merge exactly:
//
//   - Call/message partials are per-DIRECTED-edge sums. A caller's rows live
//     in the caller's shard in original row order, and each direction's sum
//     adds its observations from zero in the order they were scanned, so it
//     adds the same values in the same order whatever the shard count;
//     shards merge by adding their sums in shard order, and the undirected
//     weight is forward + reverse, (min-id → max-id) first.
//   - Co-occurrence cube membership keeps the cooccurrenceCubeCap smallest
//     customer ids per cube (a semilattice: the min-k of a union is
//     independent of merge order), so shards merge cube by cube by the union
//     of their member runs. Cubes are capped to avoid quadratic blowup on
//     very crowded cells; a cube of c members contributes c(c-1)/2 edges,
//     which preserves the community structure the feature needs.
const cooccurrenceCubeCap = 30

// coocChunks is how many customer chunks the co-occurrence finalize splits
// into: enough to balance two to eight workers over skewed per-customer
// costs.
const coocChunks = 16

// edgeSum is the weight of the undirected edge {lo, hi} in each direction:
// w[0] sums the lo → hi observations, w[1] the hi → lo ones, 0 if none.
type edgeSum struct {
	lo, hi int64
	w      [2]float64
}

// edgeFold groups directed observations by undirected edge. Each direction
// adds its observations from zero in the order they arrive, so a sum
// depends only on the order of its own observations.
type edgeFold struct {
	index *keyIndex[[2]int64] // {lo, hi} in first-appearance order
	w     [][2]float64        // per edge: its two direction sums
}

// newEdgeFold starts a fold that continues the sums of a reduced partial.
func newEdgeFold(partial []edgeSum) *edgeFold {
	f := &edgeFold{index: newKeyIndex(hashEdge, len(partial))}
	for _, e := range partial {
		w := f.at(e.lo, e.hi)
		w[0] += e.w[0]
		w[1] += e.w[1]
	}
	return f
}

// at returns the two direction sums of edge {lo, hi}.
func (f *edgeFold) at(lo, hi int64) *[2]float64 {
	i := f.index.of([2]int64{lo, hi})
	if int(i) == len(f.w) {
		f.w = append(f.w, [2]float64{})
	}
	return &f.w[i]
}

// observe adds one from → to observation of weight w.
func (f *edgeFold) observe(from, to int64, w float64) {
	if from > to {
		f.at(to, from)[1] += w
	} else {
		f.at(from, to)[0] += w
	}
}

// reduce returns the sums sorted by (lo, hi), the order Finalize inserts
// edges in. Only the distinct edges are sorted.
func (f *edgeFold) reduce() []edgeSum {
	out := make([]edgeSum, len(f.w))
	for i, k := range f.index.keys {
		out[i] = edgeSum{lo: k[0], hi: k[1], w: f.w[i]}
	}
	slices.SortFunc(out, func(x, y edgeSum) int {
		if x.lo != y.lo {
			return cmp.Compare(x.lo, y.lo)
		}
		return cmp.Compare(x.hi, y.hi)
	})
	return out
}

// mergeEdgeSums merges sorted partials into one sorted list, walking them
// together; an edge in several adds their sums in partial order.
func mergeEdgeSums(partials [][]edgeSum) []edgeSum {
	n := 0
	for _, p := range partials {
		n += len(p)
	}
	out := make([]edgeSum, 0, n)
	next := make([]int, len(partials)) // per partial: its first edge not yet merged
	for {
		var e edgeSum
		found := false
		for s, p := range partials {
			if k := next[s]; k < len(p) && (!found || p[k].lo < e.lo || p[k].lo == e.lo && p[k].hi < e.hi) {
				e.lo, e.hi, found = p[k].lo, p[k].hi, true
			}
		}
		if !found {
			return out
		}
		for s, p := range partials {
			if k := next[s]; k < len(p) && p[k].lo == e.lo && p[k].hi == e.hi {
				e.w[0] += p[k].w[0]
				e.w[1] += p[k].w[1]
				next[s]++
			}
		}
		out = append(out, e)
	}
}

// cube is one spatiotemporal cube: cell × day × time slot, the paper's
// "within 20 minute and 100x100 meter cube" (abs packs month and day).
type cube struct{ abs, slot, cell int64 }

// cubeSet is a reduced co-occurrence partial: distinct cubes, and
// members(c) the ascending, distinct, at most cooccurrenceCubeCap ids seen
// in cubes[c]. The cubes keep their first-appearance order: nothing reads
// it, and sorting them cost more than the rest of a shard's fold.
type cubeSet struct {
	cubes []cube
	start []int32 // len(cubes)+1 offsets into ids
	ids   []int64
}

func (s *cubeSet) members(c int) []int64 { return s.ids[s.start[c]:s.start[c+1]] }

// cubeFold groups sightings by cube.
type cubeFold struct {
	index *keyIndex[cube] // cubes in first-appearance order
	of    []int32         // per sighting: its cube's position
	ids   []int64         // per sighting: the customer
}

// newCubeFold starts a fold with room for rows more sightings that
// continues the given reduced partials.
func newCubeFold(rows int, partials ...cubeSet) *cubeFold {
	cubes := 0 // the largest partial's: a floor on the distinct cubes
	for _, p := range partials {
		rows += len(p.ids)
		cubes = max(cubes, len(p.cubes))
	}
	f := &cubeFold{index: newKeyIndex(hashCube, cubes), of: make([]int32, 0, rows), ids: make([]int64, 0, rows)}
	for _, p := range partials {
		f.union(p)
	}
	return f
}

func (f *cubeFold) add(k cube, id int64) {
	f.of = append(f.of, f.index.of(k))
	f.ids = append(f.ids, id)
}

// union adds the members of a reduced partial, looking each cube up once.
func (f *cubeFold) union(s cubeSet) {
	for c, k := range s.cubes {
		at := f.index.of(k)
		for _, id := range s.members(c) {
			f.of = append(f.of, at)
			f.ids = append(f.ids, id)
		}
	}
}

// reduce counting-sorts the sightings by cube and sorts each cube's own
// ids, keeping its cooccurrenceCubeCap smallest distinct ones; the cubes
// are capped side by side on up to workers goroutines.
func (f *cubeFold) reduce(workers int) cubeSet {
	cubes := f.index.keys
	n := len(cubes)
	start := make([]int32, n+1) // cube c's sightings: grouped[start[c]:start[c+1]]
	for _, c := range f.of {
		start[c+1]++
	}
	for c := range n {
		start[c+1] += start[c]
	}
	grouped := make([]int64, len(f.ids))
	next := slices.Clone(start[:n])
	for k, c := range f.of {
		grouped[next[c]] = f.ids[k]
		next[c]++
	}
	// Cap each run, then close the gaps behind them.
	size := make([]int32, n)
	parallel.ForGrain(workers, n, parallel.DefaultGrain, func(c int) {
		size[c] = int32(len(capRun(grouped[start[c]:start[c+1]])))
	})
	kept := 0
	for c := range n {
		from := int(start[c])
		start[c] = int32(kept)
		kept += copy(grouped[kept:], grouped[from:from+int(size[c])])
	}
	start[n] = int32(kept)
	return cubeSet{cubes: slices.Clone(cubes), start: start, ids: slices.Clone(grouped[:kept])}
}

// capRun sorts one cube's ids in place and returns its cooccurrenceCubeCap
// smallest distinct ones.
func capRun(ids []int64) []int64 {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	return ids[:min(len(ids), cooccurrenceCubeCap)]
}

// keyIndex numbers distinct keys by first appearance: an open-addressing
// hash table of positions in keys. On the fold's cube and edge keys it
// takes a third to a half of a Go map's time, and half its allocation.
type keyIndex[K comparable] struct {
	hash  func(K) uint64
	slots []int32 // 1 + position in keys, 0 if empty; a power of two long
	shift uint8   // hash >> shift is a slot
	keys  []K
}

// newKeyIndex returns an empty index with room for n keys.
func newKeyIndex[K comparable](hash func(K) uint64, n int) *keyIndex[K] {
	x := &keyIndex[K]{hash: hash}
	size := 64
	for size < 2*n {
		size *= 2
	}
	x.rehash(size)
	return x
}

// rehash resizes the slot table to size, a power of two, and reinserts the
// keys.
func (x *keyIndex[K]) rehash(size int) {
	x.slots = make([]int32, size)
	x.shift = uint8(bits.LeadingZeros64(uint64(size)) + 1)
	mask := len(x.slots) - 1
	for p, k := range x.keys {
		i := int(x.hash(k) >> x.shift)
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = int32(p + 1)
	}
}

// of returns k's position in keys, appending k if it is new.
func (x *keyIndex[K]) of(k K) int32 {
	mask := len(x.slots) - 1
	for i := int(x.hash(k) >> x.shift); ; i = (i + 1) & mask {
		p := x.slots[i]
		if p == 0 {
			x.keys = append(x.keys, k)
			x.slots[i] = int32(len(x.keys))
			if 2*len(x.keys) > len(x.slots) {
				x.rehash(2 * len(x.slots))
			}
			return int32(len(x.keys) - 1)
		}
		if x.keys[p-1] == k {
			return p - 1
		}
	}
}

// mix folds v into the hash h (a multiply-xorshift step; the table reads
// the top bits).
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

func hashID(id int64) uint64 { return mix(0, uint64(id)) }

func hashEdge(e [2]int64) uint64 { return mix(mix(0, uint64(e[0])), uint64(e[1])) }

func hashCube(c cube) uint64 {
	return mix(mix(mix(0, uint64(c.abs)), uint64(c.slot)), uint64(c.cell))
}

type graphPartials struct {
	call, msg []edgeSum // edgeFold.reduce output
	cooc      cubeSet
}

// GraphAccumulator folds raw rows into the F4-F6 graphs. Feed each shard's
// tables (any order, one goroutine per shard is safe — partials are
// per-shard), then Finalize; a whole-window build is one shard.
type GraphAccumulator struct {
	// Workers caps the goroutines Finalize spreads its work over: the three
	// graphs, the cube merge, the co-occurrence tally and every graph's
	// fill (0 = GOMAXPROCS). The graphs are identical for any value.
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
// resolves the universe before loading event tables. Each table is grouped
// as it is scanned and kept as a right-sized reduced partial, so an
// out-of-core run holds only the partials. Feeding a shard again continues
// its partials.
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
		f := newEdgeFold(p.call)
		for i := 0; i < calls.NumRows(); i++ {
			// A duration that is not finite and positive (NaN, +Inf) is no
			// call: one would turn every sum it reaches, and PageRank over
			// the whole graph, into NaN.
			if !inWin(i) || success[i] != 1 || svc[i] == 1 || !(dur[i] > 0 && dur[i] <= math.MaxFloat64) {
				continue
			}
			if !isCustomer(peer[i]) {
				continue
			}
			f.observe(imsi[i], peer[i], dur[i])
		}
		p.call = f.reduce()
	}
	if a.wantMsg {
		// Message graph: edge weight = number of P2P messages.
		msgs := tbl.Messages
		inWin := inWindow(msgs, win, daysPerMonth)
		imsi := msgs.MustCol("imsi").Ints
		peer := msgs.MustCol("peer").Ints
		kind := msgs.MustCol("kind").Ints
		f := newEdgeFold(p.msg)
		for i := 0; i < msgs.NumRows(); i++ {
			if !inWin(i) || kind[i] != 0 {
				continue
			}
			if !isCustomer(peer[i]) {
				continue
			}
			f.observe(imsi[i], peer[i], 1)
		}
		p.msg = f.reduce()
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
		f := newCubeFold(loc.NumRows(), p.cooc)
		for i := 0; i < loc.NumRows(); i++ {
			if !inWin(i) || !isCustomer(imsi[i]) {
				continue
			}
			f.add(cube{abs: month[i]*64 + day[i], slot: slot[i], cell: cell[i]}, imsi[i])
		}
		p.cooc = f.reduce(1)
	}
}

// Finalize materializes the requested graphs (nil for groups not
// collected). It leaves the partials untouched, so it may be called again.
// The call and message graphs build beside the co-occurrence graph, whose
// serial steps (the cube merge, the id ranking) they overlap.
func (a *GraphAccumulator) Finalize() (call, msg, cooc *graph.Graph) {
	parallel.Do(a.Workers,
		func() {
			if a.wantCooc {
				cooc = a.finalizeCooccurrence()
			}
		},
		func() {
			if a.wantCall {
				call = a.finalizeDirected(func(p *graphPartials) []edgeSum { return p.call })
			}
			if a.wantMsg {
				msg = a.finalizeDirected(func(p *graphPartials) []edgeSum { return p.msg })
			}
		})
	return call, msg, cooc
}

// finalizeDirected builds the graph of every edge, in (lo, hi) order, with
// weight forward + reverse. Over several shards the sorted partials are
// walked together, so a directed edge fed through several shards adds its
// shard sums in shard order; a single shard's partial is already that, and
// is read as is rather than copied. Ranking the endpoints turns the sorted
// list into graph.FromUpper's rows: an edge's row is its lo's rank.
func (a *GraphAccumulator) finalizeDirected(sel func(*graphPartials) []edgeSum) *graph.Graph {
	sums := sel(&a.parts[0])
	if len(a.parts) > 1 {
		partials := make([][]edgeSum, len(a.parts))
		for i := range a.parts {
			partials[i] = sel(&a.parts[i])
		}
		sums = mergeEdgeSums(partials)
	}
	ends := make([]int64, 0, 2*len(sums))
	for _, e := range sums {
		if e.lo != e.hi { // a self-call is no edge
			ends = append(ends, e.lo, e.hi)
		}
	}
	ids, rank := ranked(ends)
	m := len(ends) / 2
	run := graph.Rows[float64]{Len: make([]int32, len(ids)), Col: make([]int32, m), W: make([]float64, m)}
	i := 0
	for _, e := range sums {
		if e.lo != e.hi {
			run.Len[rank[2*i]]++
			run.Col[i], run.W[i] = rank[2*i+1], e.w[0]+e.w[1]
			i++
		}
	}
	return graph.FromUpper(ids, []graph.Rows[float64]{run}, a.Workers)
}

// ranked returns the distinct values of ids in ascending order and, per
// entry of ids, its value's rank among them. The values are numbered by
// first appearance and only the distinct ones are sorted.
func ranked(ids []int64) (sorted []int64, rank []int32) {
	number := newKeyIndex(hashID, 0)
	rank = make([]int32, len(ids)) // the entry's number, then its rank
	for k, id := range ids {
		rank[k] = number.of(id)
	}
	distinct := number.keys
	order := make([]int32, len(distinct)) // rank -> number
	for n := range order {
		order[n] = int32(n)
	}
	slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(distinct[x], distinct[y]) })
	rankOf := make([]int32, len(distinct))
	sorted = make([]int64, len(distinct))
	for r, n := range order {
		rankOf[n] = int32(r)
		sorted[r] = distinct[n]
	}
	for k, n := range rank {
		rank[k] = rankOf[n]
	}
	return sorted, rank
}

// mergedCubes is the union of the shards' co-occurrence partials: a cube's
// members are the capped union of its shards' runs. A single shard's
// partial is already that, and is read as is rather than copied.
func (a *GraphAccumulator) mergedCubes() cubeSet {
	if len(a.parts) == 1 {
		return a.parts[0].cooc
	}
	partials := make([]cubeSet, len(a.parts))
	for i := range a.parts {
		partials[i] = a.parts[i].cooc
	}
	return newCubeFold(0, partials...).reduce(a.Workers)
}

// denseTally reports whether a customer's co-member counts are emitted by
// scanning the span of ranks they fall in rather than by sorting the
// touched ranks: once at least one counter in eight is touched, the scan
// is the cheaper of the two.
func denseTally(touched, span int) bool { return touched*8 >= span }

// finalizeCooccurrence tallies the co-occurrence edges customer by
// customer in ascending id, each customer's in ascending co-member id —
// the sorted (min-id, max-id) list — without sorting the sightings by
// customer or the pairs at all. Ranking the ids gives every sighting a
// dense rank in ascending id order, and a counting sort groups the
// sightings by rank. A cube's members are sorted, so the co-members ranked
// above a sighting are the rest of its cube: a customer's are tallied over
// all their cubes in an array indexed by rank, then read back by scanning
// the touched span when it is dense (denseTally) or by sorting the touched
// ranks when it is not. Customers are independent, so chunks of them run
// across workers, each recording its rows' co-member ranks and counts, as
// int32s, in a graph.Rows run; graph.FromUpper fills the graph from the
// runs side by side. The result does not depend on the chunking.
func (a *GraphAccumulator) finalizeCooccurrence() *graph.Graph {
	cs := a.mergedCubes()
	ids, rank := ranked(cs.ids)        // rank: per sighting
	start := make([]int32, len(ids)+1) // sightings of rank r: byRank[start[r]:start[r+1]]
	for _, r := range rank {
		start[r+1]++
	}
	for r := range ids {
		start[r+1] += start[r]
	}
	byRank := make([]int32, len(rank))
	next := slices.Clone(start[:len(ids)])
	for k, r := range rank {
		byRank[next[r]] = int32(k)
		next[r]++
	}
	cubeEnd := make([]int32, len(rank)) // one past the last sighting of k's cube
	for c := range cs.cubes {
		for k := cs.start[c]; k < cs.start[c+1]; k++ {
			cubeEnd[k] = cs.start[c+1]
		}
	}

	// At most coocChunks chunks (boundaries depend on the id count alone).
	// A chunk tallies into buffers that the chunks after it reuse, at most
	// one set per worker, and keeps exact-size copies of its run.
	type tallyBuf struct {
		count   []int32 // co-member rank -> shared cubes, zero between rows
		touched []int32 // the row's co-members, first-seen order
		col, w  []int32 // the chunk's run so far
	}
	var bufs sync.Pool
	grain := max((len(ids)+coocChunks-1)/coocChunks, 64)
	runs := parallel.MapChunks(a.Workers, len(ids), grain, func(lo, hi int) graph.Rows[int32] {
		b, _ := bufs.Get().(*tallyBuf)
		if b == nil {
			b = &tallyBuf{count: make([]int32, len(ids)), touched: make([]int32, len(ids))}
		}
		defer bufs.Put(b)
		count, touched := b.count, b.touched
		lens := make([]int32, hi-lo)
		col, w := b.col[:0], b.w[:0]
		for r := lo; r < hi; r++ {
			nt := 0
			first, last := int32(len(ids)), int32(-1) // the touched span
			for _, k := range byRank[start[r]:start[r+1]] {
				for _, o := range rank[k+1 : cubeEnd[k]] {
					// Branch-free: every co-member is written at the end
					// of touched, which grows only on its first sighting.
					c := count[o]
					touched[nt] = o
					nt += int(uint32(c-1) >> 31)
					count[o] = c + 1
					first, last = min(first, o), max(last, o)
				}
			}
			lens[r-lo] = int32(nt)
			if nt == 0 {
				continue
			}
			if denseTally(nt, int(last-first)+1) {
				for o := first; o <= last; o++ {
					if count[o] != 0 {
						col, w = append(col, o), append(w, count[o])
						count[o] = 0
					}
				}
				continue
			}
			seen := touched[:nt]
			slices.Sort(seen)
			for _, o := range seen {
				col, w = append(col, o), append(w, count[o])
				count[o] = 0
			}
		}
		b.col, b.w = col, w
		return graph.Rows[int32]{Len: lens, Col: slices.Clone(col), W: slices.Clone(w)}
	})
	return graph.FromUpper(ids, runs, a.Workers)
}
