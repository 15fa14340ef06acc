package linear

import (
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

// DecodeBinarizer reads a binarizer written by (*Binarizer).Encode.
func DecodeBinarizer(r *codec.Reader) (*Binarizer, error) {
	n := r.Count(1) // a feature's cuts are at least their own length prefix
	if err := r.Err(); err != nil {
		return nil, err
	}
	b := &Binarizer{cuts: make([][]float64, n)}
	for j := range b.cuts {
		b.cuts[j] = r.Floats()
	}
	b.names = r.Strs()
	return b, r.Err()
}
