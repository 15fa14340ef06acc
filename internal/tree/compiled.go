package tree

// Compiled ensembles: the only way a fitted forest or GBDT scores a row.
//
// The pointer-based Tree/Forest nodes are what training naturally produces,
// and they stay for fitting, attribution and persistence; but walking them
// on the scoring hot path chases a heap pointer per level — every step is a
// dependent load into an unpredictable cache line. Compiling flattens each
// ensemble once (at fit or artifact load) into contiguous
// structure-of-arrays node storage:
//
//	feats[i]  split feature index, or -1 marking a leaf
//	thrs[i]   split threshold (regression leaves store their value here)
//	kids[i]   index of the left child; the right child is always kids[i]+1
//	          (classification leaves store their payload offset here)
//
// Children are allocated adjacently, so one branch direction is an add —
// traversal is `c := kids[i]; if !(x[f] <= thrs[i]) { c++ }; i = c`, which
// the compiler lowers to a conditional move rather than a branch — and the
// whole ensemble sits in a handful of slabs that prefetch well.
//
// Compiled scoring is bit-identical to walking the pointer trees: node
// order, comparison polarity (NaN fails `x <= t` and goes right, exactly
// like Tree.PredictProba) and float accumulation order are all preserved,
// so CompiledForest.PredictProba equals the tree-order average of
// Tree.PredictProba bit for bit (property tests in compiled_test.go keep
// this honest). Nothing on the scoring paths allocates.

import "telcochurn/internal/parallel"

// CompiledForest is a Forest flattened for cache-friendly scoring.
type CompiledForest struct {
	feats []int32   // per node: split feature, or -1 for a leaf
	thrs  []float64 // per node: split threshold
	kids  []int32   // split: left-child index (right = +1); leaf: probs offset
	roots []int32   // per tree: root node index
	probs []float64 // leaf class distributions, numClasses stride

	numClasses int
	features   []string
	workers    int
}

// Compile flattens the forest into contiguous node arrays. The result shares
// no mutable state with the receiver.
func (f *Forest) Compile() *CompiledForest {
	cf := &CompiledForest{
		numClasses: f.numClasses,
		features:   f.features,
		workers:    f.workers,
		roots:      make([]int32, len(f.trees)),
	}
	nodes, leaves := 0, 0
	for _, tr := range f.trees {
		n, l := countNodesLeaves(tr.root)
		nodes += n
		leaves += l
	}
	cf.feats = make([]int32, 0, nodes)
	cf.thrs = make([]float64, 0, nodes)
	cf.kids = make([]int32, 0, nodes)
	cf.probs = make([]float64, 0, leaves*f.numClasses)
	for t, tr := range f.trees {
		cf.roots[t] = cf.alloc(1)
		cf.fillClass(cf.roots[t], tr.root)
	}
	return cf
}

func countNodesLeaves(nd *node) (nodes, leaves int) {
	if nd == nil {
		return 0, 0
	}
	if nd.isLeaf() {
		return 1, 1
	}
	ln, ll := countNodesLeaves(nd.left)
	rn, rl := countNodesLeaves(nd.right)
	return 1 + ln + rn, ll + rl
}

// alloc reserves n consecutive node slots and returns the first index.
func (cf *CompiledForest) alloc(n int) int32 {
	i := int32(len(cf.feats))
	for k := 0; k < n; k++ {
		cf.feats = append(cf.feats, 0)
		cf.thrs = append(cf.thrs, 0)
		cf.kids = append(cf.kids, 0)
	}
	return i
}

// fillClass writes nd into slot i, reserving adjacent slots for its children.
func (cf *CompiledForest) fillClass(i int32, nd *node) {
	if nd.isLeaf() {
		cf.feats[i] = -1
		cf.kids[i] = int32(len(cf.probs))
		cf.probs = append(cf.probs, nd.probs...)
		return
	}
	c := cf.alloc(2)
	cf.feats[i] = int32(nd.feature)
	cf.thrs[i] = nd.threshold
	cf.kids[i] = c
	cf.fillClass(c, nd.left)
	cf.fillClass(c+1, nd.right)
}

// leafOf walks one tree to its leaf and returns the leaf's probs offset.
func (cf *CompiledForest) leafOf(root int32, x []float64) int32 {
	i := root
	f := cf.feats[i]
	for f >= 0 {
		c := cf.kids[i]
		// !(x <= t) matches the pointer walker exactly, including NaN
		// (which fails the comparison and goes right); the compiler turns
		// this select into a conditional move, keeping the loop branchless.
		if !(x[f] <= cf.thrs[i]) {
			c++
		}
		i = c
		f = cf.feats[i]
	}
	return cf.kids[i]
}

// PredictProba returns the ensemble-average class distribution (Eq. 4).
func (cf *CompiledForest) PredictProba(x []float64) []float64 {
	out := make([]float64, cf.numClasses)
	cf.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto is PredictProba into a caller-owned buffer (len must be
// NumClasses), allocating nothing.
func (cf *CompiledForest) PredictProbaInto(x []float64, out []float64) {
	for c := range out {
		out[c] = 0
	}
	for _, r := range cf.roots {
		off := int(cf.leafOf(r, x))
		for c := range out {
			out[c] += cf.probs[off+c]
		}
	}
	for c := range out {
		out[c] /= float64(len(cf.roots))
	}
}

// Score returns the class-1 (churner) likelihood — Eq. (4)'s y — without
// allocating. It accumulates only the class-1 column, which is the same
// float sequence as PredictProba(x)[1].
func (cf *CompiledForest) Score(x []float64) float64 {
	acc := 0.0
	for _, r := range cf.roots {
		acc += cf.probs[int(cf.leafOf(r, x))+1]
	}
	return acc / float64(len(cf.roots))
}

// ScoreAll scores many instances in parallel, returning class-1 likelihoods.
func (cf *CompiledForest) ScoreAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	parallel.For(cf.workers, len(x), func(i int) {
		out[i] = cf.Score(x[i])
	})
	return out
}

// NumTrees returns the ensemble size.
func (cf *CompiledForest) NumTrees() int { return len(cf.roots) }

// NumClasses returns the class count.
func (cf *CompiledForest) NumClasses() int { return cf.numClasses }

// NumNodes returns the total flattened node count (introspection/tests).
func (cf *CompiledForest) NumNodes() int { return len(cf.feats) }

// FeatureNames returns the training feature names.
func (cf *CompiledForest) FeatureNames() []string { return cf.features }

// CompiledGBDT is a GBDT flattened for cache-friendly scoring. Regression
// leaves keep their value in the threshold slot, so the ensemble needs no
// separate payload array.
type CompiledGBDT struct {
	feats []int32
	thrs  []float64
	kids  []int32
	roots []int32
	bias  float64
	lr    float64
}

// Compile flattens the boosted ensemble for scoring.
func (g *GBDT) Compile() *CompiledGBDT {
	cg := &CompiledGBDT{bias: g.bias, lr: g.lr, roots: make([]int32, len(g.trees))}
	nodes := 0
	for _, tr := range g.trees {
		n, _ := countNodesLeaves(tr.root)
		nodes += n
	}
	cg.feats = make([]int32, 0, nodes)
	cg.thrs = make([]float64, 0, nodes)
	cg.kids = make([]int32, 0, nodes)
	for t, tr := range g.trees {
		cg.roots[t] = cg.alloc(1)
		cg.fillReg(cg.roots[t], tr.root)
	}
	return cg
}

func (cg *CompiledGBDT) alloc(n int) int32 {
	i := int32(len(cg.feats))
	for k := 0; k < n; k++ {
		cg.feats = append(cg.feats, 0)
		cg.thrs = append(cg.thrs, 0)
		cg.kids = append(cg.kids, 0)
	}
	return i
}

func (cg *CompiledGBDT) fillReg(i int32, nd *node) {
	if nd.isLeaf() {
		cg.feats[i] = -1
		cg.thrs[i] = nd.value
		return
	}
	c := cg.alloc(2)
	cg.feats[i] = int32(nd.feature)
	cg.thrs[i] = nd.threshold
	cg.kids[i] = c
	cg.fillReg(c, nd.left)
	cg.fillReg(c+1, nd.right)
}

// Score returns the churn likelihood without allocating: the sigmoid of the
// bias plus lr times each round's leaf value, summed in round order.
func (cg *CompiledGBDT) Score(x []float64) float64 {
	f := cg.bias
	for _, r := range cg.roots {
		i := r
		ft := cg.feats[i]
		for ft >= 0 {
			c := cg.kids[i]
			if !(x[ft] <= cg.thrs[i]) {
				c++
			}
			i = c
			ft = cg.feats[i]
		}
		f += cg.lr * cg.thrs[i]
	}
	return sigmoid(f)
}

// ScoreAll scores many instances in parallel.
func (cg *CompiledGBDT) ScoreAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	parallel.For(0, len(x), func(i int) {
		out[i] = cg.Score(x[i])
	})
	return out
}

// Width returns the shortest row the ensemble can score: one past its
// largest split feature (0 when every round is a bare leaf). TCGB stores
// no feature count, so a loader checks this against its own schema.
func (cg *CompiledGBDT) Width() int {
	w := 0
	for _, f := range cg.feats {
		w = max(w, int(f)+1)
	}
	return w
}

// NumTrees returns the number of boosting rounds.
func (cg *CompiledGBDT) NumTrees() int { return len(cg.roots) }

// NumNodes returns the total flattened node count.
func (cg *CompiledGBDT) NumNodes() int { return len(cg.feats) }
