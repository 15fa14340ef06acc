package tree

// Flat node storage: the one form every fitted forest and GBDT takes.
//
// The growers write each node straight into contiguous
// structure-of-arrays storage, ReadForest and ReadGBDT decode into it,
// WriteTo and attribution walk it, and scoring runs over it:
//
//	feats[i]   split feature index, or -1 marking a leaf
//	thrs[i]    split threshold; a leaf's score payload (the class-1
//	           probability of a forest leaf, the value of a GBDT leaf)
//	kids[i]    index of the left child; the right child is always kids[i]+1
//	counts[i]  training instances that reached the node (persisted only)
//	roots[t]   tree t's root node
//
// A forest also keeps every node's class distribution, numClasses wide,
// at probs[i*numClasses:]: PredictProba averages the leaves', and
// attribution reads the splits'. Each tree is laid out root first, then a
// split's two children side by side, left subtree first, so one branch
// direction is an add.
//
// Lockstep lanes. One walk is a chain of dependent loads — node, feature
// cell, threshold, next node — about seven levels deep, and a core that
// follows one chain at a time mostly waits. walk4 walks one row down four
// consecutive trees per step instead, so their loads overlap; Score,
// PredictProbaInto and, row by row, ScoreAll all go through it. Walks end
// at different depths, and a lane that stands on a leaf holds still
// without a branch: the sign of feats[i] is a mask that zeroes both the
// lane's feature index and its step, and the only test per step is "all
// four lanes at a leaf".
//
// The lanes change only the order in which leaves are found, never the
// order they are added: every row sums its leaf payloads one at a time in
// tree order, so a score is the same float sequence as walking one tree
// at a time, one node at a time (NaN fails `x <= t` and goes right), bit
// for bit; the property tests in compiled_test.go compare the two.
// Nothing on the single-row paths allocates, and the kernel's scratch
// state lives on the stack.

import "telcochurn/internal/parallel"

// lanes is how many trees walk4 walks per step.
const lanes = 4

// nodes is the flat node storage both ensembles share, with the one
// walker that scores them.
type nodes struct {
	feats   []int32   // per node: split feature, or -1 for a leaf
	thrs    []float64 // per node: split threshold, or leaf payload
	kids    []int32   // split: left-child index (right = +1)
	counts  []int32   // per node: training instances that reached it
	roots   []int32   // per tree: root node index
	workers int       // ScoreAll's goroutine cap; 0 means GOMAXPROCS
}

// reset empties the arrays, keeping their capacity.
func (n *nodes) reset() {
	n.feats, n.thrs, n.kids, n.counts, n.roots = n.feats[:0], n.thrs[:0], n.kids[:0], n.counts[:0], n.roots[:0]
}

// alloc appends k consecutive node slots and returns the first index.
func (n *nodes) alloc(k int) int32 {
	i := int32(len(n.feats))
	for ; k > 0; k-- {
		n.feats = append(n.feats, 0)
		n.thrs = append(n.thrs, 0)
		n.kids = append(n.kids, 0)
		n.counts = append(n.counts, 0)
	}
	return i
}

// setLeaf makes slot i a leaf with payload v over count instances.
func (n *nodes) setLeaf(i int32, v float64, count int) {
	n.feats[i], n.thrs[i], n.kids[i], n.counts[i] = -1, v, 0, int32(count)
}

// setSplit makes slot i a split sending x[feature] <= threshold to the
// left child kid and the rest to kid+1.
func (n *nodes) setSplit(i int32, feature int, threshold float64, kid int32, count int) {
	n.feats[i], n.thrs[i], n.kids[i], n.counts[i] = int32(feature), threshold, kid, int32(count)
}

// walk4 walks row x down trees t..t+3 in lockstep until every lane stands
// on a leaf, and returns the four leaves; lanes past the last tree walk the
// last tree again. A step moves a lane from node i to kids[i], plus one
// when the row goes right. The sign of f = feats[i] is the leaf mask
// m = f>>63, all ones at a leaf: it zeroes the feature index, so a lane at
// a leaf reads x[0], and it zeroes the step, so the lane holds still. x[0]
// exists whenever the loop steps at all, because some lane then splits on
// a cell of x. A leaf's kids entry is never followed.
func (n *nodes) walk4(t int, x []float64) (int32, int32, int32, int32) {
	// One length for all three arrays lets the compiler drop the bounds
	// checks on thrs and kids once feats[i] has passed its own.
	feats := n.feats
	thrs, kids := n.thrs[:len(feats)], n.kids[:len(feats)]
	r, last := n.roots, len(n.roots)-1
	j0, j1, j2, j3 := int(r[t]), int(r[min(t+1, last)]), int(r[min(t+2, last)]), int(r[min(t+3, last)])
	for {
		f0, f1, f2, f3 := int(feats[j0]), int(feats[j1]), int(feats[j2]), int(feats[j3])
		if f0&f1&f2&f3 < 0 {
			return int32(j0), int32(j1), int32(j2), int32(j3)
		}
		m0, m1, m2, m3 := f0>>63, f1>>63, f2>>63, f3>>63
		c0 := int(kids[j0]) + right(x[f0&^m0], thrs[j0])
		c1 := int(kids[j1]) + right(x[f1&^m1], thrs[j1])
		c2 := int(kids[j2]) + right(x[f2&^m2], thrs[j2])
		c3 := int(kids[j3]) + right(x[f3&^m3], thrs[j3])
		j0 += (c0 - j0) &^ m0
		j1 += (c1 - j1) &^ m1
		j2 += (c2 - j2) &^ m2
		j3 += (c3 - j3) &^ m3
	}
}

// right is 1 when a walk at threshold t goes right for cell v, else 0:
// !(v <= t), which NaN fails, so NaN goes right — the same rule the
// growers partition rows by. The compiler turns it into a flag set rather
// than a branch.
func right(v, t float64) int {
	if !(v <= t) {
		return 1
	}
	return 0
}

// sum returns acc plus scale times each tree's leaf payload for row x,
// added one tree at a time in tree order. Each product is rounded before
// it is added (the float64 conversion), so no host fuses the two.
func (n *nodes) sum(x []float64, acc, scale float64) float64 {
	thrs, nt := n.thrs, len(n.roots)
	t := 0
	for ; t+lanes <= nt; t += lanes {
		l0, l1, l2, l3 := n.walk4(t, x)
		acc += float64(scale * thrs[l0])
		acc += float64(scale * thrs[l1])
		acc += float64(scale * thrs[l2])
		acc += float64(scale * thrs[l3])
	}
	if t < nt {
		l0, l1, l2, _ := n.walk4(t, x)
		leaves := [...]int32{l0, l1, l2}
		for _, l := range leaves[:nt-t] {
			acc += float64(scale * thrs[l])
		}
	}
	return acc
}

// SetWorkers caps how many goroutines ScoreAll fans out across (0 means
// GOMAXPROCS). Scores are identical for any value. It must not race with
// scoring: the owner sets it before handing the ensemble out.
func (n *nodes) SetWorkers(w int) { n.workers = w }

// NumTrees returns the ensemble size (boosting rounds for a GBDT).
func (n *nodes) NumTrees() int { return len(n.roots) }

// CompiledForest is the name the benchmark harness in bench/ scores a
// forest through. It is the Forest itself, kept until that harness names
// Forest (ROADMAP item 1).
type CompiledForest = Forest

// Compile returns the forest's scoring view, which is the forest itself:
// fitting and ReadForest already build the flat form. It is kept for the
// benchmark harness in bench/ until ROADMAP item 1.
func (f *Forest) Compile() *CompiledForest { return f }

// PredictProba returns the ensemble-average class distribution (Eq. 4).
func (f *Forest) PredictProba(x []float64) []float64 {
	out := make([]float64, f.numClasses)
	f.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto is PredictProba into a caller-owned buffer (len must be
// NumClasses), allocating nothing.
func (f *Forest) PredictProbaInto(x []float64, out []float64) {
	for c := range out {
		out[c] = 0
	}
	nt, nc := len(f.roots), f.numClasses
	for t := 0; t < nt; t += lanes {
		l0, l1, l2, l3 := f.walk4(t, x)
		leaves := [...]int32{l0, l1, l2, l3}
		for _, l := range leaves[:min(lanes, nt-t)] {
			off := int(l) * nc
			for c := range out {
				out[c] += f.probs[off+c]
			}
		}
	}
	for c := range out {
		out[c] /= float64(nt)
	}
}

// Score returns the class-1 (churner) likelihood — Eq. (4)'s y — without
// allocating. It accumulates only the class-1 column (each leaf keeps it in
// its thrs slot, and 1·p is exactly p), which is the same float sequence
// as PredictProba(x)[1].
func (f *Forest) Score(x []float64) float64 {
	return f.sum(x, 0, 1) / float64(len(f.roots))
}

// ScoreAll scores many instances, returning class-1 likelihoods, each
// bit-identical to Score. Past 256 rows it fans out across at most the
// SetWorkers cap.
func (f *Forest) ScoreAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	parallel.For(f.workers, len(x), func(i int) {
		out[i] = f.Score(x[i])
	})
	return out
}

// Score returns the churn likelihood without allocating: the sigmoid of the
// bias plus lr times each round's leaf value, summed in round order.
func (g *GBDT) Score(x []float64) float64 {
	return sigmoid(g.sum(x, g.bias, g.lr))
}

// ScoreAll scores many instances, each bit-identical to Score, fanning
// out past 256 rows like Forest.ScoreAll.
func (g *GBDT) ScoreAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	parallel.For(g.workers, len(x), func(i int) {
		out[i] = g.Score(x[i])
	})
	return out
}

// Width returns the shortest row the ensemble can score: one past its
// largest split feature (0 when every round is a bare leaf). TCGB stores
// no feature count, so a loader checks this against its own schema.
func (g *GBDT) Width() int {
	w := 0
	for _, f := range g.feats {
		w = max(w, int(f)+1)
	}
	return w
}
