package fm

import (
	"fmt"

	"telcochurn/internal/codec"
)

// Encode appends the trained FM parameters (w0, w, latent factors V) to an
// open codec stream: V as a row count and one length-prefixed row of K
// floats per feature.
func (m *Model) Encode(w *codec.Writer) {
	w.Float(m.W0)
	w.Floats(m.W)
	nf := len(m.W)
	w.Uvarint(uint64(nf))
	for i := 0; i < nf; i++ {
		w.Floats(m.row(i))
	}
}

// DecodeModel reads a model written by (*Model).Encode. The latent rows
// must be one per weight, all of one nonzero width; anything else is
// codec.ErrCorrupt, so a loaded model never indexes past a row.
func DecodeModel(r *codec.Reader) (*Model, error) {
	m := &Model{W0: r.Float(), W: r.Floats()}
	n := r.Count(1) // a row is at least its own length prefix
	if r.Err() == nil && n != len(m.W) {
		r.Fail(fmt.Sprintf("fm model with %d weights and %d latent rows", len(m.W), n))
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		row := r.Floats()
		if i == 0 {
			m.K = len(row)
		}
		if len(row) != m.K || m.K == 0 {
			r.Fail("fm model with latent rows of zero or unequal width")
		}
		m.V = append(m.V, row...)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}
