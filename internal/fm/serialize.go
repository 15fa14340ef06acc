package fm

import (
	"telcochurn/internal/codec"
)

// Encode appends the trained FM parameters (w0, w, latent factors V) to an
// open codec stream.
func (m *Model) Encode(w *codec.Writer) {
	w.Float(m.W0)
	w.Floats(m.W)
	w.Uvarint(uint64(len(m.V)))
	for _, v := range m.V {
		w.Floats(v)
	}
}

// DecodeModel reads a model written by (*Model).Encode.
func DecodeModel(r *codec.Reader) (*Model, error) {
	m := &Model{W0: r.Float(), W: r.Floats()}
	n := r.Count(1) // a row is at least its own length prefix
	if err := r.Err(); err != nil {
		return nil, err
	}
	m.V = make([][]float64, n)
	for i := range m.V {
		m.V[i] = r.Floats()
	}
	if len(m.V) > 0 && len(m.V[0]) == 0 {
		r.Fail("fm model with zero-width latent factors")
	}
	return m, r.Err()
}
