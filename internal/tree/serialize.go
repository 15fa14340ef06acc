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
	cw.Uvarint(uint64(len(f.trees)))
	for _, tr := range f.trees {
		cw.Floats(tr.importance)
		if err := writeClassNode(cw, tr.root); err != nil {
			return 0, err
		}
	}
	return cw.Close()
}

// writeClassNode serializes a classification node pre-order: tag (0 leaf,
// 1 split), then payload.
func writeClassNode(cw *codec.Writer, nd *node) error {
	if nd == nil {
		return errors.New("tree: nil node during serialization")
	}
	if nd.isLeaf() {
		cw.Uvarint(0)
		cw.Uvarint(uint64(nd.n))
		for _, p := range nd.probs {
			cw.Float(p)
		}
		return nil
	}
	cw.Uvarint(1)
	cw.Uvarint(uint64(nd.feature))
	cw.Float(nd.threshold)
	cw.Uvarint(uint64(nd.n))
	// Internal nodes carry their class distribution for attribution.
	for _, p := range nd.probs {
		cw.Float(p)
	}
	if err := writeClassNode(cw, nd.left); err != nil {
		return err
	}
	return writeClassNode(cw, nd.right)
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
	f.trees = make([]*Tree, nTrees)
	for t := range f.trees {
		tr := &Tree{numClasses: f.numClasses, numFeat: len(f.features)}
		tr.importance = rd.Floats()
		tr.root = readClassNode(rd, f.numClasses, len(f.features), 0)
		f.trees[t] = tr
	}
	if err := rd.Close(); err != nil {
		return nil, badModel(err)
	}
	return f, nil
}

const maxTreeDepth = 64

// readFeature reads a split's feature index and fails on one a row of
// numFeat features does not have: the compiled walker indexes rows with it
// unchecked, as an int32.
func readFeature(rd *codec.Reader, numFeat int) int {
	f := rd.Uvarint()
	if f >= uint64(numFeat) {
		rd.Fail(fmt.Sprintf("split feature %d of %d", f, numFeat))
		return 0
	}
	return int(f)
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

func readClassNode(rd *codec.Reader, numClasses, numFeat, depth int) *node {
	if rd.Err() != nil || depth > maxTreeDepth {
		rd.Fail("tree too deep or truncated")
		return &node{probs: make([]float64, numClasses)}
	}
	tag := rd.Uvarint()
	switch tag {
	case 0:
		nd := &node{n: int(rd.Uvarint()), probs: make([]float64, numClasses)}
		for i := range nd.probs {
			nd.probs[i] = readFinite(rd, "class probability")
		}
		return nd
	case 1:
		nd := &node{
			feature:   readFeature(rd, numFeat),
			threshold: rd.Float(),
			probs:     make([]float64, numClasses),
		}
		nd.n = int(rd.Uvarint())
		for i := range nd.probs {
			nd.probs[i] = readFinite(rd, "class probability")
		}
		nd.left = readClassNode(rd, numClasses, numFeat, depth+1)
		nd.right = readClassNode(rd, numClasses, numFeat, depth+1)
		return nd
	default:
		rd.Fail(fmt.Sprintf("bad node tag %d", tag))
		return &node{probs: make([]float64, numClasses)}
	}
}

// WriteTo serializes the boosted ensemble: bias, learning rate, then each
// round's regression tree. It returns the number of bytes written.
func (g *GBDT) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(w, gbdtMagic)
	cw.Float(g.bias)
	cw.Float(g.lr)
	cw.Uvarint(uint64(len(g.trees)))
	for _, tr := range g.trees {
		if err := writeRegNode(cw, tr.root); err != nil {
			return 0, err
		}
	}
	return cw.Close()
}

// writeRegNode serializes a regression node pre-order: tag (0 leaf with its
// value, 1 split), mirroring writeClassNode without class distributions.
func writeRegNode(cw *codec.Writer, nd *node) error {
	if nd == nil {
		return errors.New("tree: nil node during serialization")
	}
	if nd.isLeaf() {
		cw.Uvarint(0)
		cw.Uvarint(uint64(nd.n))
		cw.Float(nd.value)
		return nil
	}
	cw.Uvarint(1)
	cw.Uvarint(uint64(nd.feature))
	cw.Float(nd.threshold)
	cw.Uvarint(uint64(nd.n))
	if err := writeRegNode(cw, nd.left); err != nil {
		return err
	}
	return writeRegNode(cw, nd.right)
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
	g.trees = make([]*RegressionTree, nTrees)
	for t := range g.trees {
		g.trees[t] = &RegressionTree{root: readRegNode(rd, 0)}
	}
	if err := rd.Close(); err != nil {
		return nil, badModel(err)
	}
	return g, nil
}

func readRegNode(rd *codec.Reader, depth int) *node {
	if rd.Err() != nil || depth > maxTreeDepth {
		rd.Fail("tree too deep or truncated")
		return &node{}
	}
	tag := rd.Uvarint()
	switch tag {
	case 0:
		return &node{n: int(rd.Uvarint()), value: readFinite(rd, "leaf value")}
	case 1:
		// TCGB stores no feature count, so only the int32 range is checked
		// here; the loader holding the schema checks CompiledGBDT.Width.
		nd := &node{feature: readFeature(rd, math.MaxInt32), threshold: rd.Float()}
		nd.n = int(rd.Uvarint())
		nd.left = readRegNode(rd, depth+1)
		nd.right = readRegNode(rd, depth+1)
		return nd
	default:
		rd.Fail(fmt.Sprintf("bad node tag %d", tag))
		return &node{}
	}
}

// badModel maps a codec framing error onto the package's sentinel.
func badModel(err error) error {
	if errors.Is(err, codec.ErrCorrupt) {
		return fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	return err
}
