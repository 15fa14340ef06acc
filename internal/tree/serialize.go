package tree

// Binary forest persistence: a deployed churn system retrains monthly but
// scores continuously, so the fitted forest must survive process restarts.
// "TCRF" uses the shared codec framing (ASCII magic, varint-coded tree
// structures, exact float64 bits, trailing CRC32). The core package nests
// the whole file inside its pipeline artifact. The forest is the one
// ensemble that is persisted: GBDT is fitted and scored in memory only.

import (
	"errors"
	"fmt"
	"io"
	"math"

	"telcochurn/internal/codec"
)

const forestMagic = "TCRF"

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
	for _, r := range f.roots {
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
	// A tree is at least a leaf: tag, n and one probability per class.
	nTrees := rd.Count(2 + 8*f.numClasses)
	if err := rd.Err(); err != nil {
		return nil, badModel(err)
	}
	if nTrees == 0 {
		// The forest's score is the average over its trees: 0/0.
		return nil, fmt.Errorf("%w: forest has no trees", ErrBadModel)
	}
	f.roots = make([]int32, nTrees)
	for t := range f.roots {
		f.roots[t] = f.alloc(1)
		f.readNode(rd, f.roots[t], 0)
	}
	if err := rd.Close(); err != nil {
		return nil, badModel(err)
	}
	return f, nil
}

const maxTreeDepth = 64

// readNode decodes the subtree writeNode wrote into slot i, its children
// into two fresh adjacent slots, left subtree first. It fails on a split
// feature a row of the forest's width does not have (the walker indexes
// rows with it unchecked, as an int32), on a count past 2^31 - 1 (the row
// limit, so it fits the int32 counts array), and on a NaN or ±Inf class
// probability: one would turn every score it reaches into NaN, which no
// reply can carry. Split distributions count too: attribution reads them.
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
		feat := rd.Uvarint()
		if feat >= uint64(len(f.features)) {
			rd.Fail(fmt.Sprintf("split feature %d of %d", feat, len(f.features)))
			return
		}
		feature, threshold = int(feat), rd.Float()
	}
	n := rd.Uvarint()
	if n > math.MaxInt32 {
		rd.Fail(fmt.Sprintf("node count %d", n))
		return
	}
	nc := f.numClasses
	probs := f.probs[int(i)*nc : int(i+1)*nc]
	for c := range probs {
		probs[c] = rd.Float()
		if math.IsNaN(probs[c]) || math.IsInf(probs[c], 0) {
			rd.Fail(fmt.Sprintf("non-finite class probability %v", probs[c]))
			return
		}
	}
	if tag == 0 {
		f.setLeaf(i, probs[1], int(n))
		return
	}
	c := f.alloc(2)
	f.setSplit(i, feature, threshold, c, int(n))
	f.readNode(rd, c, depth+1)
	f.readNode(rd, c+1, depth+1)
}

// badModel maps a codec framing error onto the package's sentinel.
func badModel(err error) error {
	if errors.Is(err, codec.ErrCorrupt) {
		return fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	return err
}
