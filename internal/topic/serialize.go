package topic

import (
	"fmt"

	"telcochurn/internal/codec"
)

// Encode appends the model's scoring state to an open codec stream: the
// hyperparameters, the vocabulary (in index order) and the topic-word
// distributions Phi. Theta — the training documents' features — is not
// persisted: fold-in (the only operation a deployed scorer runs) needs only
// Phi and the vocabulary, and the training corpus stays with the trainer.
func (m *Model) Encode(w *codec.Writer) {
	w.Uvarint(uint64(m.cfg.K))
	w.Float(m.cfg.Alpha)
	w.Float(m.cfg.Beta)
	w.Uvarint(uint64(m.cfg.Iters))
	w.Int(m.cfg.Seed)
	vocab := make([]string, len(m.vocabIndex))
	for word, i := range m.vocabIndex {
		vocab[i] = word
	}
	w.Strs(vocab)
	w.Uvarint(uint64(len(m.Phi)))
	for _, row := range m.Phi {
		w.Floats(row)
	}
}

// Decode reads a model written by Encode. FoldIn on the result is
// bit-identical to the original.
func Decode(r *codec.Reader) (*Model, error) {
	m := &Model{}
	m.cfg.K = int(r.Uvarint())
	m.cfg.Alpha = r.Float()
	m.cfg.Beta = r.Float()
	m.cfg.Iters = int(r.Uvarint())
	m.cfg.Seed = r.Int()
	vocab := r.Strs()
	m.vocabIndex = make(map[string]int, len(vocab))
	for i, word := range vocab {
		m.vocabIndex[word] = i
	}
	k := r.Count(1) // a Phi row is at least its own length prefix
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Encode writes the vocabulary back out of the index, so a repeated
	// word would leave it a slot short; K = 0 would fold into an empty theta.
	if len(m.vocabIndex) != len(vocab) {
		r.Fail("topic model vocabulary repeats a word")
		return nil, r.Err()
	}
	if m.cfg.K < 1 {
		r.Fail(fmt.Sprintf("topic model has K=%d topics", m.cfg.K))
		return nil, r.Err()
	}
	if k != m.cfg.K {
		r.Fail(fmt.Sprintf("topic model has %d Phi rows, config says K=%d", k, m.cfg.K))
		return nil, r.Err()
	}
	m.Phi = make([][]float64, k)
	for i := range m.Phi {
		m.Phi[i] = r.Floats()
		if len(m.Phi[i]) != len(vocab) {
			r.Fail("Phi row length does not match vocabulary")
			return nil, r.Err()
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	m.transposePhi()
	return m, nil
}
