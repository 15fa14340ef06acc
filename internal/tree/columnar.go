package tree

// Columnar training backend. The legacy grower re-sorted every sampled
// feature at every node (O(depth · √F · n log n) interface-based sorts over
// the row-major matrix); this backend sorts each feature once per training
// matrix, keeps the data feature-major, and maintains the sorted orders
// across splits by stable in-place partitioning, so a node's split scan is a
// single pass over contiguous memory and allocates nothing.
//
// Three layers:
//
//   - colData: the immutable per-matrix view — feature-major value columns
//     plus, per feature, either a presorted row order (exact mode) or
//     quantile bin assignments (histogram mode, Config.MaxBins > 0). A
//     forest builds it once and shares it across all trees; GBDT builds it
//     once and shares it across all boosting rounds.
//   - colLayout: the mutable per-tree state — the node row list and (exact
//     mode) per-feature order arrays, each partitioned in place at every
//     split, plus the membership marker and scratch buffer that make the
//     partition allocation-free. A forest tree's layout lists the distinct
//     rows its bootstrap drew, each carrying its draw count as an integer
//     multiplicity, over colData's shared columns: nothing is gathered or
//     re-sorted, each order is the shared presort filtered to the drawn rows.
//   - colGrower / colRegGrower (regression.go): the recursive CART growth,
//     operating on [start, end) segments of the layout's arrays and
//     writing each node straight into the flat node arrays (compiled.go).
//
// Invariants maintained by the layout:
//
//  1. Every tree node owns a contiguous segment [start, end) of rows and of
//     each order array; children own [start, start+nLeft) and
//     [start+nLeft, end).
//  2. rows[start:end] preserves the relative order of the original rows
//     (stable partition), so per-node reductions visit rows in exactly the
//     order the legacy partition-based grower did.
//  3. orders[f][start:end] lists the node's rows ascending by feature f —
//     the presort invariant the split scan relies on.
//
// With unit instance weights the exact path is bit-identical to the legacy
// scan: all class-mass partial sums are integer-valued (below 2^53), so the
// order in which tied rows are accumulated cannot change them, and
// thresholds/improvements are computed with the exact same arithmetic. The
// same argument makes a forest tree on its distinct rows identical to the
// tree on the expanded resample (every row repeated by its draw count): a
// row drawn c times adds c where the expanded scan adds 1 c times in a row,
// and no cut falls between copies of one row. With
// arbitrary non-dyadic weights, tied feature values may be accumulated in a
// different order than the legacy unstable sort visited them, which can
// move improvements by ulps; everything stays deterministic for any worker
// count either way.

import (
	"math"
	"math/rand"
	"sort"
)

// maxBinsLimit caps MaxBins so histogram bin indices fit in a byte.
const maxBinsLimit = 255

// clampBins maps a configured MaxBins into [0, maxBinsLimit].
func clampBins(b int) int { return min(max(b, 0), maxBinsLimit) }

// colData is the immutable columnar view of one training matrix, shared by
// every tree grown on it.
type colData struct {
	numRows int
	cols    [][]float64 // cols[f][row] = x[row][f]
	// Exact mode: rows sorted ascending by cols[f].
	orders [][]int32
	// Histogram mode: binUpper[f][b] is the split threshold after bin b
	// (len bins(f)-1, ascending); binIdx[f][row] is the row's bin, defined
	// as the smallest b with value <= binUpper[f][b] (last bin otherwise) —
	// so "bins 0..b go left under threshold binUpper[f][b]" matches the
	// predictor's `x <= threshold` routing exactly.
	binUpper [][]float64
	binIdx   [][]uint8
}

// newColData transposes x to feature-major and presorts (maxBins == 0) or
// quantile-bins (maxBins > 0) every feature. O(F·n log n) once, against the
// legacy backend's per-node sorts.
func newColData(x [][]float64, numFeat, maxBins int) *colData {
	n := len(x)
	cd := &colData{numRows: n, cols: make([][]float64, numFeat)}
	flat := make([]float64, numFeat*n)
	for f := range cd.cols {
		cd.cols[f] = flat[f*n : (f+1)*n : (f+1)*n]
	}
	for i, row := range x {
		for f, v := range row {
			cd.cols[f][i] = v
		}
	}
	if maxBins > 0 {
		cd.bin(maxBins)
	} else {
		cd.presort()
	}
	return cd
}

func (cd *colData) presort() {
	n := cd.numRows
	cd.orders = make([][]int32, len(cd.cols))
	flat := make([]int32, len(cd.cols)*n)
	for f, col := range cd.cols {
		ord := flat[f*n : (f+1)*n : (f+1)*n]
		for i := range ord {
			ord[i] = int32(i)
		}
		sort.Slice(ord, func(a, b int) bool { return col[ord[a]] < col[ord[b]] })
		cd.orders[f] = ord
	}
}

func (cd *colData) bin(maxBins int) {
	maxBins = clampBins(maxBins)
	n := cd.numRows
	cd.binUpper = make([][]float64, len(cd.cols))
	cd.binIdx = make([][]uint8, len(cd.cols))
	sorted := make([]float64, n)
	flat := make([]uint8, len(cd.cols)*n)
	for f, col := range cd.cols {
		copy(sorted, col)
		sort.Float64s(sorted)
		upper := binEdges(sorted, maxBins)
		cd.binUpper[f] = upper
		idx := flat[f*n : (f+1)*n : (f+1)*n]
		if len(upper) > 0 {
			for i, v := range col {
				idx[i] = uint8(sort.SearchFloat64s(upper, v))
			}
		}
		cd.binIdx[f] = idx
	}
}

// binEdges picks quantile cut points over the sorted values: a cut is
// placed after every ~n/maxBins values, only between distinct neighbors, so
// equal values always share a bin and at most maxBins bins result. The edge
// is the midpoint of the straddled values, mirroring the exact scan's
// thresholds.
func binEdges(sorted []float64, maxBins int) []float64 {
	n := len(sorted)
	if n < 2 || maxBins < 2 {
		return nil
	}
	per := (n + maxBins - 1) / maxBins
	edges := make([]float64, 0, maxBins-1)
	count := 0
	for i := 0; i < n-1; i++ {
		count++
		if count >= per && sorted[i] != sorted[i+1] {
			edges = append(edges, (sorted[i]+sorted[i+1])/2)
			count = 0
		}
	}
	return edges
}

// colLayout is one tree's mutable training state over a colData.
type colLayout struct {
	cols     [][]float64
	binUpper [][]float64
	binIdx   [][]uint8
	rows     []int32   // node row lists, stable-partitioned per split
	orders   [][]int32 // exact mode: per-feature row orders, ditto
	// mult[r] is how many times a forest tree's bootstrap drew row r; nil
	// means every row counts once. Only unit-weight growers read it.
	mult     []int32
	goesLeft []uint8 // node-membership marker (0/1) for the chosen split, by row
	scratch  []int32 // stable-partition spill buffer
}

// newLayout builds the identity layout (tree trained on cd's rows
// directly). Order arrays are copied because splits partition them in
// place; value columns and bin assignments are shared read-only.
func newLayout(cd *colData) *colLayout {
	n := cd.numRows
	l := &colLayout{
		cols:     cd.cols,
		binUpper: cd.binUpper,
		binIdx:   cd.binIdx,
		rows:     make([]int32, n),
		goesLeft: make([]uint8, n),
		scratch:  make([]int32, n),
	}
	for i := range l.rows {
		l.rows[i] = int32(i)
	}
	if cd.orders != nil {
		l.orders = make([][]int32, len(cd.orders))
		flat := make([]int32, len(cd.orders)*n)
		for f, ord := range cd.orders {
			dst := flat[f*n : (f+1)*n : (f+1)*n]
			copy(dst, ord)
			l.orders[f] = dst
		}
	}
	return l
}

// bootBuffers is the reusable per-tree arena for forest training: the
// layout's arrays, the flat backing of its order arrays, and the node
// arrays a tree grows into before fitTreeBoot copies it out at its exact
// size. FitForest keeps them in a sync.Pool so a 500-tree fit allocates
// them only ~once per worker. Every layout buffer is sized by the source
// row count, which bounds any tree's distinct rows, so none is ever
// reallocated; the node arrays grow to the largest tree's size.
type bootBuffers struct {
	lay     colLayout
	ordFlat []int32
	tree    Forest
}

// newBootstrapLayout lays out the tree grown on the bootstrap draw idx as
// the distinct rows it drew, ascending, each with its draw count in
// l.mult. Values, bins and labels are cd's and the dataset's own, shared
// read-only; each feature's order is cd's presort filtered to the drawn
// rows in one pass. O(F·m) per tree for m source rows, with no gather.
func newBootstrapLayout(cd *colData, idx []int, b *bootBuffers) *colLayout {
	m := cd.numRows
	l := &b.lay
	l.cols, l.binUpper, l.binIdx = cd.cols, cd.binUpper, cd.binIdx
	l.mult = growInt32(l.mult, m)
	clear(l.mult)
	for _, r := range idx {
		l.mult[r]++
	}
	// The filters write every row and advance past the drawn ones
	// (min(count, 1)) without a branch: about 37 % of rows go undrawn, in
	// no pattern a predictor could learn. The write index never passes the
	// read index, so a filter stays inside an m-row buffer.
	rows := growInt32(l.rows, m)
	u := 0
	for r, c := range l.mult {
		rows[u] = int32(r)
		u += int(min(c, 1))
	}
	l.rows = rows[:u]
	l.scratch = growInt32(l.scratch, m)
	if cap(l.goesLeft) < m {
		l.goesLeft = make([]uint8, m)
	}
	l.goesLeft = l.goesLeft[:m]

	if cd.orders == nil {
		l.orders = nil
		return l
	}
	numFeat := len(cd.orders)
	if cap(b.ordFlat) < numFeat*m || len(l.orders) != numFeat {
		b.ordFlat = make([]int32, numFeat*m)
		l.orders = make([][]int32, numFeat)
	}
	for f, src := range cd.orders {
		dst := b.ordFlat[f*m : (f+1)*m : (f+1)*m]
		k := 0
		for _, r := range src {
			dst[k] = r
			k += int(min(l.mult[r], 1))
		}
		l.orders[f] = dst[:u]
	}
	return l
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// markSplit records which of the node's rows go left under the split,
// without moving anything — the caller checks the min-leaf rule first so a
// rejected split leaves the layout untouched (leaf reductions must still
// see the original row order). It returns how many layout rows go left
// (nPos: where commitSplit cuts the segment) and how many instances they
// stand for with their multiplicities (nLeft: what the min-leaf rule
// counts). The marker is computed branch-free: split outcomes are ~50/50,
// the worst case for branch prediction.
func (l *colLayout) markSplit(start, end, feature int, threshold float64) (nPos, nLeft int) {
	col := l.cols[feature]
	goesLeft := l.goesLeft
	rows := l.rows[start:end]
	for _, i := range rows {
		b := uint8(0)
		if col[i] <= threshold {
			b = 1
		}
		goesLeft[i] = b
		nPos += int(b)
	}
	if l.mult == nil {
		return nPos, nPos
	}
	for _, i := range rows {
		nLeft += int(goesLeft[i]) * int(l.mult[i])
	}
	return nPos, nLeft
}

// commitSplit partitions the node's segment of the row list and of every
// order array against the goesLeft marker. The partition is stable, which
// preserves both layout invariants (2) and (3).
func (l *colLayout) commitSplit(start, end int) {
	stablePartition(l.rows[start:end], l.goesLeft, l.scratch)
	for _, ord := range l.orders {
		stablePartition(ord[start:end], l.goesLeft, l.scratch)
	}
}

// stablePartition moves marked rows to the front of seg, preserving
// relative order on both sides, spilling the right side through scratch.
// Writes trail reads (left count <= scan position), so compaction is safe
// in place. Both targets are written unconditionally and the cursors
// advance by the 0/1 marker — branch-free, since the 50/50 left/right
// pattern defeats branch prediction and this loop runs for every feature at
// every split.
func stablePartition(seg []int32, goesLeft []uint8, scratch []int32) {
	nl, nr := 0, 0
	for _, i := range seg {
		b := int(goesLeft[i])
		seg[nl] = i
		scratch[nr] = i
		nl += b
		nr += 1 - b
	}
	copy(seg[nl:], scratch[:nr])
}

// idxSlice materializes a node's rows as []int, in original relative order,
// for leaf callbacks (leaves only — off the hot path).
func (l *colLayout) idxSlice(start, end int) []int {
	idx := make([]int, end-start)
	for j, i := range l.rows[start:end] {
		idx[j] = int(i)
	}
	return idx
}

// sampleSplitFeatures draws the per-node feature subset: k == 0 means all
// features, -1 means √F (the forest default), k > 0 exactly k. The RNG is
// consumed identically to the legacy growers (one Perm per sampling node).
func sampleSplitFeatures(rng *rand.Rand, numFeat, k int) []int {
	if numFeat == 0 {
		return nil
	}
	switch {
	case k == 0 || k >= numFeat:
		all := make([]int, numFeat)
		for i := range all {
			all[i] = i
		}
		return all
	case k == -1:
		k = int(math.Sqrt(float64(numFeat)))
		if k < 1 {
			k = 1
		}
	}
	return rng.Perm(numFeat)[:k]
}

// colGrower grows one CART classification tree over a colLayout into a
// one-tree Forest. Node splitting allocates nothing beyond the node
// arrays' growth: class masses, histogram accumulators and partition
// scratch live in per-grower buffers sized once up front.
type colGrower struct {
	lay        *colLayout
	out        *Forest
	y          []int
	numClasses int
	cfg        Config
	rng        *rand.Rand
	importance []float64
	// w holds the instance weights, or is nil when they are all 1 (every
	// forest tree: the bootstrap encodes weights in the draw). Each row then
	// counts cnt[i] whole units, its multiplicity — bit-identical to
	// accumulating cnt[i] 1.0s, since integer-valued float64 sums are
	// exact — and the min-leaf rule counts the same units.
	w   []float64
	cnt []int32 // w == nil: lay.mult, or all ones for a layout without it

	mass     []float64 // node class-mass accumulator
	leftMass []float64 // split-scan left-side accumulator
	histMass []float64 // histogram mode: bins × classes masses
	histCnt  []int     // histogram mode: instance counts per bin
}

// newColGrower grows over lay with labels y and instance weights w (nil or
// all ones for unit weights, the only kind a layout with mult may have).
func newColGrower(lay *colLayout, y []int, w []float64, numClasses, numFeat int, cfg Config) *colGrower {
	g := &colGrower{
		lay:        lay,
		y:          y,
		numClasses: numClasses,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		importance: make([]float64, numFeat),
		mass:       make([]float64, numClasses),
		leftMass:   make([]float64, numClasses),
	}
	if lay.binUpper != nil {
		g.histMass = make([]float64, cfg.MaxBins*numClasses)
		g.histCnt = make([]int, cfg.MaxBins)
	}
	for _, v := range w {
		if v != 1 {
			g.w = w
			return g
		}
	}
	g.cnt = lay.mult
	if g.cnt == nil {
		g.cnt = make([]int32, len(y))
		for i := range g.cnt {
			g.cnt[i] = 1
		}
	}
	return g
}

// fit grows one tree over the layout's first rows rows into out, which it
// empties first but for its capacity, and returns out: a one-tree forest
// with its raw Gini importance.
func (g *colGrower) fit(rows int, out *Forest) *Forest {
	out.reset()
	out.probs, out.numClasses = out.probs[:0], g.numClasses
	out.roots = append(out.roots, out.alloc(1))
	g.out = out
	g.grow(0, 0, rows, 0)
	out.treeImp = [][]float64{g.importance}
	return out
}

// grow writes the node over the layout's rows [start, end) into slot i.
// A split takes two adjacent slots for its children and grows the left
// subtree first.
func (g *colGrower) grow(i int32, start, end, depth int) {
	mass := g.mass
	clear(mass)
	n := end - start // the node's training instances
	if g.w == nil {
		n = 0
		for _, r := range g.lay.rows[start:end] {
			c := g.cnt[r]
			mass[g.y[r]] += float64(c)
			n += int(c)
		}
	} else {
		for _, r := range g.lay.rows[start:end] {
			mass[g.y[r]] += g.w[r]
		}
	}
	// Every node keeps its class distribution: a leaf's is its prediction,
	// and a split's lets decision-path attribution (Contributions) credit
	// the split's probability shift to the feature it tested. Written
	// before recursion clobbers the shared mass buffer; the node is a leaf
	// until a split below replaces it.
	out, nc := g.out, g.numClasses
	probs := out.probs[int(i)*nc : int(i+1)*nc]
	normalize(probs, mass)
	out.setLeaf(i, probs[1], n)
	if n < 2*g.cfg.MinLeafSamples || depth == g.cfg.MaxDepth && g.cfg.MaxDepth > 0 {
		return
	}
	if isPure(mass) {
		return
	}

	best := g.bestSplit(start, end, n, mass)
	if best.feature < 0 {
		return
	}
	nPos, nLeft := g.lay.markSplit(start, end, best.feature, best.threshold)
	if nLeft < g.cfg.MinLeafSamples || n-nLeft < g.cfg.MinLeafSamples {
		return
	}
	g.lay.commitSplit(start, end)
	g.importance[best.feature] += best.improvement
	c := out.alloc(2)
	out.setSplit(i, best.feature, best.threshold, c, n)
	g.grow(c, start, start+nPos, depth+1)
	g.grow(c+1, start+nPos, end, depth+1)
}

// bestSplit searches the sampled feature subset for the split with the
// maximum weighted Gini improvement (Eq. 5); n is the node's instance count
// as grow counted it.
func (g *colGrower) bestSplit(start, end, n int, parentMass []float64) split {
	features := sampleSplitFeatures(g.rng, len(g.lay.cols), g.cfg.FeaturesPerSplit)
	parentGini := Gini(parentMass)
	parentTotal := 0.0
	for _, m := range parentMass {
		parentTotal += m
	}
	best := split{feature: -1}
	for _, f := range features {
		if g.lay.orders != nil {
			g.scanExact(f, start, end, n, parentMass, parentGini, parentTotal, &best)
		} else {
			g.scanHist(f, start, end, n, parentMass, parentGini, parentTotal, &best)
		}
	}
	return best
}

// scanExact walks the node's presorted order for feature f, evaluating a
// cut between every pair of distinct adjacent values; the min-leaf rule is
// enforced on instance counts (rows with their multiplicities, not weights).
func (g *colGrower) scanExact(f, start, end, n int, parentMass []float64, parentGini, parentTotal float64, best *split) {
	ord := g.lay.orders[f][start:end]
	col := g.lay.cols[f]
	leftMass := g.leftMass
	clear(leftMass)
	minLeaf := g.cfg.MinLeafSamples
	if g.w == nil {
		nLeft := 0
		for pos := 0; pos < len(ord)-1; pos++ {
			i := ord[pos]
			c := int(g.cnt[i])
			leftMass[g.y[i]] += float64(c)
			nLeft += c
			cur, next := col[i], col[ord[pos+1]]
			if cur == next {
				continue
			}
			if nLeft < minLeaf || n-nLeft < minLeaf {
				continue
			}
			leftTotal := float64(nLeft)
			q := leftTotal / parentTotal
			rightGini := giniComplement(parentMass, leftMass, parentTotal-leftTotal)
			improvement := parentGini - float64(q*Gini(leftMass)) - float64((1-q)*rightGini)
			if improvement > best.improvement {
				*best = split{feature: f, threshold: (cur + next) / 2, improvement: improvement}
			}
		}
		return
	}
	leftTotal := 0.0
	for pos := 0; pos < len(ord)-1; pos++ {
		i := ord[pos]
		leftMass[g.y[i]] += g.w[i]
		leftTotal += g.w[i]
		cur, next := col[i], col[ord[pos+1]]
		if cur == next {
			continue
		}
		nLeft := pos + 1
		if nLeft < minLeaf || n-nLeft < minLeaf {
			continue
		}
		q := leftTotal / parentTotal
		rightGini := giniComplement(parentMass, leftMass, parentTotal-leftTotal)
		improvement := parentGini - float64(q*Gini(leftMass)) - float64((1-q)*rightGini)
		if improvement > best.improvement {
			*best = split{feature: f, threshold: (cur + next) / 2, improvement: improvement}
		}
	}
}

// scanHist accumulates the node's class masses into feature f's quantile
// bins in one unordered pass over the rows, then evaluates a cut at every
// non-empty bin boundary. An empty bin's boundary would duplicate the
// previous cut at a higher threshold, so it is skipped.
func (g *colGrower) scanHist(f, start, end, n int, parentMass []float64, parentGini, parentTotal float64, best *split) {
	upper := g.lay.binUpper[f]
	if len(upper) == 0 {
		return // constant feature: nothing to cut
	}
	nb := len(upper) + 1
	C := g.numClasses
	hm := g.histMass[:nb*C]
	hc := g.histCnt[:nb]
	clear(hm)
	clear(hc)
	bins := g.lay.binIdx[f]
	if g.w == nil {
		for _, i := range g.lay.rows[start:end] {
			b := int(bins[i])
			c := g.cnt[i]
			hm[b*C+g.y[i]] += float64(c)
			hc[b] += int(c)
		}
	} else {
		for _, i := range g.lay.rows[start:end] {
			b := int(bins[i])
			hm[b*C+g.y[i]] += g.w[i]
			hc[b]++
		}
	}
	leftMass := g.leftMass
	clear(leftMass)
	leftTotal := 0.0
	nLeft := 0
	minLeaf := g.cfg.MinLeafSamples
	for b := 0; b < nb-1; b++ {
		for c := 0; c < C; c++ {
			m := hm[b*C+c]
			leftMass[c] += m
			leftTotal += m
		}
		nLeft += hc[b]
		if hc[b] == 0 {
			continue
		}
		if nLeft < minLeaf || n-nLeft < minLeaf {
			continue
		}
		q := leftTotal / parentTotal
		rightGini := giniComplement(parentMass, leftMass, parentTotal-leftTotal)
		improvement := parentGini - float64(q*Gini(leftMass)) - float64((1-q)*rightGini)
		if improvement > best.improvement {
			*best = split{feature: f, threshold: upper[b], improvement: improvement}
		}
	}
}
