package tree

// Binary model persistence: a deployed churn system retrains monthly but
// scores continuously, so fitted ensembles must survive process restarts.
// Both formats use the shared codec framing (ASCII magic, varint-coded tree
// structures, exact float64 bits, trailing CRC32): "TCRF" for random
// forests, "TCGB" for boosted trees. The core package nests these whole
// files inside its pipeline artifact.

import (
	"errors"
	"fmt"
	"io"
	"math"

	"telcochurn/internal/codec"
)

const (
	forestMagic = "TCRF"
	gbdtMagic   = "TCGB"
)

// ErrBadModel is returned when a model file fails structural or checksum
// validation.
var ErrBadModel = errors.New("tree: corrupt model data")

// WriteTo serializes the forest. It returns the number of bytes written.
func (f *Forest) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(w, forestMagic)
	cw.Uvarint(uint64(f.numClasses))
	cw.Strs(f.features)
	cw.Floats(f.importance)
	cw.Uvarint(uint64(len(f.roots)))
	for t, r := range f.roots {
		cw.Floats(f.treeImp[t])
		f.writeNode(cw, r)
	}
	return cw.Close()
}

// writeNode serializes the subtree at node i pre-order: tag (0 leaf,
// 1 split), then payload. Every node carries its class distribution, a
// split's for attribution.
func (f *Forest) writeNode(cw *codec.Writer, i int32) {
	leaf := f.feats[i] < 0
	if leaf {
		cw.Uvarint(0)
	} else {
		cw.Uvarint(1)
		cw.Uvarint(uint64(f.feats[i]))
		cw.Float(f.thrs[i])
	}
	cw.Uvarint(uint64(f.counts[i]))
	nc := f.numClasses
	for _, p := range f.probs[int(i)*nc : int(i+1)*nc] {
		cw.Float(p)
	}
	if !leaf {
		f.writeNode(cw, f.kids[i])
		f.writeNode(cw, f.kids[i]+1)
	}
}

// ReadForest deserializes a forest written by WriteTo.
func ReadForest(r io.Reader) (*Forest, error) {
	rd, err := codec.NewReader(r, forestMagic)
	if err != nil {
		return nil, badModel(err)
	}
	f := &Forest{}
	f.numClasses = int(rd.Uvarint())
	if f.numClasses < 2 || f.numClasses > 1<<16 {
		return nil, fmt.Errorf("%w: class count %d", ErrBadModel, f.numClasses)
	}
	f.features = rd.Strs()
	f.importance = rd.Floats()
	// A tree is at least an importance length and a leaf: tag, n and one
	// probability per class.
	nTrees := rd.Count(3 + 8*f.numClasses)
	if err := rd.Err(); err != nil {
		return nil, badModel(err)
	}
	if nTrees == 0 {
		// The forest's score is the average over its trees: 0/0.
		return nil, fmt.Errorf("%w: forest has no trees", ErrBadModel)
	}
	f.roots = make([]int32, nTrees)
	f.treeImp = make([][]float64, nTrees)
	for t := range f.roots {
		f.treeImp[t] = rd.Floats()
		f.roots[t] = f.alloc(1)
		f.readNode(rd, f.roots[t], 0)
	}
	if err := rd.Close(); err != nil {
		return nil, badModel(err)
	}
	return f, nil
}

const maxTreeDepth = 64

// readFeature reads a split's feature index and fails on one a row of
// numFeat features does not have: the walker indexes rows with it
// unchecked, as an int32.
func readFeature(rd *codec.Reader, numFeat int) int {
	f := rd.Uvarint()
	if f >= uint64(numFeat) {
		rd.Fail(fmt.Sprintf("split feature %d of %d", f, numFeat))
		return 0
	}
	return int(f)
}

// readCount reads a node's training count, which fitting never lets pass
// 2^31 - 1 (the row limit), so it fits the int32 counts array.
func readCount(rd *codec.Reader) int {
	n := rd.Uvarint()
	if n > math.MaxInt32 {
		rd.Fail(fmt.Sprintf("node count %d", n))
		return 0
	}
	return int(n)
}

// readFinite reads a float that scores are summed from and fails on NaN or
// ±Inf: one would turn every score it reaches into NaN, which no reply can
// carry. Split distributions count too: attribution reads them.
func readFinite(rd *codec.Reader, what string) float64 {
	v := rd.Float()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		rd.Fail(fmt.Sprintf("non-finite %s %v", what, v))
	}
	return v
}

// readNode decodes the subtree writeNode wrote into slot i, its children
// into two fresh adjacent slots, left subtree first.
func (f *Forest) readNode(rd *codec.Reader, i int32, depth int) {
	if rd.Err() != nil || depth > maxTreeDepth {
		rd.Fail("tree too deep or truncated")
		return
	}
	tag := rd.Uvarint()
	if tag > 1 {
		rd.Fail(fmt.Sprintf("bad node tag %d", tag))
		return
	}
	feature, threshold := -1, 0.0
	if tag == 1 {
		feature, threshold = readFeature(rd, len(f.features)), rd.Float()
	}
	n := readCount(rd)
	nc := f.numClasses
	probs := f.probs[int(i)*nc : int(i+1)*nc]
	for c := range probs {
		probs[c] = readFinite(rd, "class probability")
	}
	if tag == 0 {
		f.setLeaf(i, probs[1], n)
		return
	}
	c := f.alloc(2)
	f.setSplit(i, feature, threshold, c, n)
	f.readNode(rd, c, depth+1)
	f.readNode(rd, c+1, depth+1)
}

// WriteTo serializes the boosted ensemble: bias, learning rate, then each
// round's regression tree. It returns the number of bytes written.
func (g *GBDT) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(w, gbdtMagic)
	cw.Float(g.bias)
	cw.Float(g.lr)
	cw.Uvarint(uint64(len(g.roots)))
	for _, r := range g.roots {
		g.writeNode(cw, r)
	}
	return cw.Close()
}

// writeNode serializes a regression subtree pre-order: tag (0 leaf with
// its value, 1 split), mirroring Forest.writeNode without class
// distributions.
func (g *GBDT) writeNode(cw *codec.Writer, i int32) {
	if g.feats[i] < 0 {
		cw.Uvarint(0)
		cw.Uvarint(uint64(g.counts[i]))
		cw.Float(g.thrs[i])
		return
	}
	cw.Uvarint(1)
	cw.Uvarint(uint64(g.feats[i]))
	cw.Float(g.thrs[i])
	cw.Uvarint(uint64(g.counts[i]))
	g.writeNode(cw, g.kids[i])
	g.writeNode(cw, g.kids[i]+1)
}

// ReadGBDT deserializes a boosted ensemble written by (*GBDT).WriteTo.
func ReadGBDT(r io.Reader) (*GBDT, error) {
	rd, err := codec.NewReader(r, gbdtMagic)
	if err != nil {
		return nil, badModel(err)
	}
	g := &GBDT{bias: readFinite(rd, "bias"), lr: readFinite(rd, "learning rate")}
	nTrees := rd.Count(10) // a tree is at least a leaf: tag, n, value
	if err := rd.Err(); err != nil {
		return nil, badModel(err)
	}
	g.roots = make([]int32, nTrees)
	for t := range g.roots {
		g.roots[t] = g.alloc(1)
		g.readNode(rd, g.roots[t], 0)
	}
	if err := rd.Close(); err != nil {
		return nil, badModel(err)
	}
	return g, nil
}

// readNode decodes the subtree GBDT.writeNode wrote into slot i.
func (g *GBDT) readNode(rd *codec.Reader, i int32, depth int) {
	if rd.Err() != nil || depth > maxTreeDepth {
		rd.Fail("tree too deep or truncated")
		return
	}
	tag := rd.Uvarint()
	switch tag {
	case 0:
		n := readCount(rd)
		g.setLeaf(i, readFinite(rd, "leaf value"), n)
	case 1:
		// TCGB stores no feature count, so only the int32 range is checked
		// here; the loader holding the schema checks GBDT.Width.
		feature, threshold := readFeature(rd, math.MaxInt32), rd.Float()
		n := readCount(rd)
		c := g.alloc(2)
		g.setSplit(i, feature, threshold, c, n)
		g.readNode(rd, c, depth+1)
		g.readNode(rd, c+1, depth+1)
	default:
		rd.Fail(fmt.Sprintf("bad node tag %d", tag))
	}
}

// badModel maps a codec framing error onto the package's sentinel.
func badModel(err error) error {
	if errors.Is(err, codec.ErrCorrupt) {
		return fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	return err
}
