package features

import (
	"telcochurn/internal/codec"
	"telcochurn/internal/fm"
	"telcochurn/internal/topic"
)

// Encode appends the featurizer (group tag, column prefix, trained LDA
// model) to an open codec stream.
func (tf *TopicFeaturizer) Encode(w *codec.Writer) {
	w.Uvarint(uint64(tf.group))
	w.Str(tf.prefix)
	tf.model.Encode(w)
}

// DecodeTopicFeaturizer reads a featurizer written by Encode; Apply on the
// result produces bit-identical topic columns.
func DecodeTopicFeaturizer(r *codec.Reader) (*TopicFeaturizer, error) {
	tf := &TopicFeaturizer{group: Group(r.Uvarint()), prefix: r.Str()}
	m, err := topic.Decode(r)
	if err != nil {
		return nil, err
	}
	tf.model = m
	return tf, r.Err()
}

// Encode appends the selector's scoring state (source schema, per-column
// standardization, selected pairs) to an open codec stream.
func (s *SecondOrderSelector) Encode(w *codec.Writer) {
	w.Strs(s.sourceNames)
	w.Floats(s.means)
	w.Floats(s.stds)
	w.Uvarint(uint64(len(s.pairs)))
	for _, p := range s.pairs {
		w.Uvarint(uint64(p.I))
		w.Uvarint(uint64(p.J))
		w.Float(p.Weight)
	}
}

// DecodeSecondOrder reads a selector written by Encode.
func DecodeSecondOrder(r *codec.Reader) (*SecondOrderSelector, error) {
	s := &SecondOrderSelector{
		sourceNames: r.Strs(),
		means:       r.Floats(),
		stds:        r.Floats(),
	}
	n := r.Count(10) // two indices and an 8-byte weight
	if err := r.Err(); err != nil {
		return nil, err
	}
	s.pairs = make([]fm.Pair, n)
	for k := range s.pairs {
		s.pairs[k] = fm.Pair{I: int(r.Uvarint()), J: int(r.Uvarint()), Weight: r.Float()}
	}
	nf := len(s.sourceNames)
	if len(s.means) != nf || len(s.stds) != nf {
		r.Fail("second-order standardization does not match source schema")
		return nil, r.Err()
	}
	for _, p := range s.pairs {
		if p.I >= nf || p.J >= nf {
			r.Fail("second-order pair index out of range")
			return nil, r.Err()
		}
	}
	return s, r.Err()
}
