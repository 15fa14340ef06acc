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
//	thrs[i]   split threshold; a leaf's score payload (the class-1
//	          probability of a forest leaf, the value of a GBDT leaf)
//	kids[i]   index of the left child; the right child is always kids[i]+1
//	          (classification leaves store their probs offset here)
//
// Children are allocated adjacently, so one branch direction is an add.
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
// Compiled scoring is bit-identical to walking the pointer trees: node
// order and comparison polarity are preserved (NaN fails `x <= t` and goes
// right, exactly like Tree.PredictProba), and the lanes change only the
// order in which leaves are found, never the order they are added: every
// row sums its leaf payloads one at a time in tree order, so the float
// sequence — and CompiledForest.PredictProba, the tree-order average of
// Tree.PredictProba — is the same bit for bit (property tests in
// compiled_test.go keep this honest). Nothing on the single-row paths
// allocates, and the kernel's scratch state lives on the stack.

import "telcochurn/internal/parallel"

// lanes is how many trees walk4 walks per step.
const lanes = 4

// nodes is the flat node storage both compiled ensembles share, with the
// one walker that scores them.
type nodes struct {
	feats   []int32   // per node: split feature, or -1 for a leaf
	thrs    []float64 // per node: split threshold, or leaf payload
	kids    []int32   // split: left-child index (right = +1)
	roots   []int32   // per tree: root node index
	workers int       // ScoreAll's goroutine cap; 0 means GOMAXPROCS
}

// alloc appends k consecutive node slots and returns the first index.
func (n *nodes) alloc(k int) int32 {
	i := int32(len(n.feats))
	for ; k > 0; k-- {
		n.feats = append(n.feats, 0)
		n.thrs = append(n.thrs, 0)
		n.kids = append(n.kids, 0)
	}
	return i
}

// reserve empties the node arrays with room for count nodes.
func (n *nodes) reserve(count int) {
	n.feats = make([]int32, 0, count)
	n.thrs = make([]float64, 0, count)
	n.kids = make([]int32, 0, count)
}

// walk4 walks row x down trees t..t+3 in lockstep until every lane stands
// on a leaf, and returns the four leaves; lanes past the last tree walk the
// last tree again. A step moves a lane from node i to kids[i], plus one
// when the row goes right. The sign of f = feats[i] is the leaf mask
// m = f>>63, all ones at a leaf: it zeroes the feature index, so a lane at
// a leaf reads x[0], and it zeroes the step, so the lane holds still. x[0]
// exists whenever the loop steps at all, because some lane then splits on
// a cell of x. A leaf's kids entry is a payload offset and is never
// followed.
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
// !(v <= t), which NaN fails, like the pointer walker's else-branch. The
// compiler turns it into a flag set rather than a branch.
func right(v, t float64) int {
	if !(v <= t) {
		return 1
	}
	return 0
}

// sum returns acc plus scale times each tree's leaf payload for row x,
// added one tree at a time in tree order.
func (n *nodes) sum(x []float64, acc, scale float64) float64 {
	thrs, nt := n.thrs, len(n.roots)
	t := 0
	for ; t+lanes <= nt; t += lanes {
		l0, l1, l2, l3 := n.walk4(t, x)
		acc += scale * thrs[l0]
		acc += scale * thrs[l1]
		acc += scale * thrs[l2]
		acc += scale * thrs[l3]
	}
	if t < nt {
		l0, l1, l2, _ := n.walk4(t, x)
		leaves := [...]int32{l0, l1, l2}
		for _, l := range leaves[:nt-t] {
			acc += scale * thrs[l]
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

// NumNodes returns the total flattened node count (introspection/tests).
func (n *nodes) NumNodes() int { return len(n.feats) }

// CompiledForest is a Forest flattened for cache-friendly scoring.
type CompiledForest struct {
	nodes
	probs []float64 // leaf class distributions, numClasses stride

	numClasses int
	features   []string
}

// Compile flattens the forest into contiguous node arrays. The result shares
// no mutable state with the receiver.
func (f *Forest) Compile() *CompiledForest {
	cf := &CompiledForest{
		numClasses: f.numClasses,
		features:   f.features,
	}
	cf.workers = f.workers
	cf.roots = make([]int32, len(f.trees))
	nodes, leaves := 0, 0
	for _, tr := range f.trees {
		n, l := countNodesLeaves(tr.root)
		nodes += n
		leaves += l
	}
	cf.reserve(nodes)
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

// fillClass writes nd into slot i, reserving adjacent slots for its children.
func (cf *CompiledForest) fillClass(i int32, nd *node) {
	if nd.isLeaf() {
		cf.feats[i] = -1
		cf.thrs[i] = nd.probs[1]
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
	nt := len(cf.roots)
	for t := 0; t < nt; t += lanes {
		l0, l1, l2, l3 := cf.walk4(t, x)
		leaves := [...]int32{l0, l1, l2, l3}
		for _, l := range leaves[:min(lanes, nt-t)] {
			off := int(cf.kids[l])
			for c := range out {
				out[c] += cf.probs[off+c]
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
func (cf *CompiledForest) Score(x []float64) float64 {
	return cf.sum(x, 0, 1) / float64(len(cf.roots))
}

// ScoreAll scores many instances, returning class-1 likelihoods, each
// bit-identical to Score. Past 256 rows it fans out across at most the
// SetWorkers cap.
func (cf *CompiledForest) ScoreAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	parallel.For(cf.workers, len(x), func(i int) {
		out[i] = cf.Score(x[i])
	})
	return out
}

// NumClasses returns the class count.
func (cf *CompiledForest) NumClasses() int { return cf.numClasses }

// FeatureNames returns the training feature names.
func (cf *CompiledForest) FeatureNames() []string { return cf.features }

// CompiledGBDT is a GBDT flattened for cache-friendly scoring. Regression
// leaves keep their value in the threshold slot, so the ensemble needs no
// separate payload array.
type CompiledGBDT struct {
	nodes
	bias float64
	lr   float64
}

// Compile flattens the boosted ensemble for scoring.
func (g *GBDT) Compile() *CompiledGBDT {
	cg := &CompiledGBDT{bias: g.bias, lr: g.lr}
	cg.roots = make([]int32, len(g.trees))
	nodes := 0
	for _, tr := range g.trees {
		n, _ := countNodesLeaves(tr.root)
		nodes += n
	}
	cg.reserve(nodes)
	for t, tr := range g.trees {
		cg.roots[t] = cg.alloc(1)
		cg.fillReg(cg.roots[t], tr.root)
	}
	return cg
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
	return sigmoid(cg.sum(x, cg.bias, cg.lr))
}

// ScoreAll scores many instances, each bit-identical to Score, fanning
// out past 256 rows like CompiledForest.ScoreAll.
func (cg *CompiledGBDT) ScoreAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	parallel.For(cg.workers, len(x), func(i int) {
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
