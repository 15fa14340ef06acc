package linear

import (
	"fmt"

	"telcochurn/internal/codec"
)

// Encode appends the trained weights to an open codec stream.
func (m *Model) Encode(w *codec.Writer) {
	w.Float(m.Bias)
	w.Floats(m.Weights)
}

// DecodeModel reads a model written by (*Model).Encode.
func DecodeModel(r *codec.Reader) (*Model, error) {
	m := &Model{Bias: r.Float(), Weights: r.Floats()}
	return m, r.Err()
}

// Encode appends the fitted quantile boundaries and output names to an open
// codec stream, so a loaded binarizer reproduces TransformRow bit for bit.
func (b *Binarizer) Encode(w *codec.Writer) {
	w.Uvarint(uint64(len(b.cuts)))
	for _, cuts := range b.cuts {
		w.Floats(cuts)
	}
	w.Strs(b.names)
}

// DecodeBinarizer reads a binarizer written by (*Binarizer).Encode. It
// must name every output TransformRow makes, Σ (len(cuts[j]) + 1), and no
// more; anything else is codec.ErrCorrupt.
func DecodeBinarizer(r *codec.Reader) (*Binarizer, error) {
	n := r.Count(1) // a feature's cuts are at least their own length prefix
	if err := r.Err(); err != nil {
		return nil, err
	}
	b := &Binarizer{cuts: make([][]float64, n)}
	outputs := 0
	for j := range b.cuts {
		b.cuts[j] = r.Floats()
		outputs += len(b.cuts[j]) + 1
	}
	b.names = r.Strs()
	if r.Err() == nil && len(b.names) != outputs {
		r.Fail(fmt.Sprintf("binarizer makes %d outputs but names %d", outputs, len(b.names)))
	}
	return b, r.Err()
}
