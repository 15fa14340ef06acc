package topic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"telcochurn/internal/codec"
)

// fuzzMagic frames the fuzzed bodies; Decode never sees it.
const fuzzMagic = "TOPICFUZZ"

// sealed frames body with fuzzMagic and its CRC32 trailer, as a Writer
// would, so every mutation reaches Decode instead of the checksum.
func sealed(body []byte) []byte {
	data := append([]byte(fuzzMagic), body...)
	return binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(body))
}

// encodedBody is the body Encode writes for m: the framed stream without
// its magic and trailer.
func encodedBody(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := codec.NewWriter(&buf, fuzzMagic)
	m.Encode(w)
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[len(fuzzMagic) : buf.Len()-4]
}

// decodeBody decodes one model from the front of body. done reports
// whether the model took the whole body.
func decodeBody(body []byte) (m *Model, done bool, err error) {
	r, err := codec.NewReaderBytes(sealed(body), fuzzMagic)
	if err != nil {
		return nil, false, err
	}
	if m, err = Decode(r); err != nil {
		return nil, false, err
	}
	return m, r.Close() == nil, nil
}

// FuzzDecodeTopicModel drives Decode, the topic model's half of the
// artifact reader, over arbitrary bodies sealed with magic and CRC.
// Whatever the bytes, Decode either fails with codec.ErrCorrupt or returns
// a model that Encode writes back to exactly the bytes Decode consumed —
// the whole body, or a prefix that decodes to the end on its own — and
// that folds in a short document of its own words and an unknown one
// without panicking, to K >= 1 topic weights. The seeds are fitted models at
// one to three topics, each also cut short and with a byte after it, and
// the hand-broken models under testdata/fuzz (K = 0, a vocabulary that
// repeats its word).
func FuzzDecodeTopicModel(f *testing.F) {
	for k := 1; k <= 3; k++ {
		c, _ := twoTopicCorpus(8, int64(k))
		m, err := Fit(c, Config{K: k, Iters: 5, Seed: int64(k)})
		if err != nil {
			f.Fatal(err)
		}
		body := encodedBody(f, m)
		f.Add(body)
		f.Add(append(bytes.Clone(body), 0x01)) // a trailing byte after the model
		f.Add(body[:len(body)/2])              // cut in the Phi rows
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		m, done, err := decodeBody(body)
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("%v is not codec.ErrCorrupt", err)
			}
			return
		}
		enc := encodedBody(t, m)
		if done && !bytes.Equal(enc, body) {
			t.Fatalf("Encode after Decode wrote %d bytes that differ from the %d decoded", len(enc), len(body))
		}
		if !done {
			if !bytes.HasPrefix(body, enc) {
				t.Fatalf("Encode after Decode wrote %d bytes that are no prefix of the %d-byte body", len(enc), len(body))
			}
			if _, whole, err := decodeBody(enc); err != nil || !whole {
				t.Fatalf("the re-encoded %d bytes do not decode to their end: %v", len(enc), err)
			}
		}
		doc := []string{"an-unknown-word"}
		for word, i := range m.vocabIndex {
			if i < 3 {
				doc = append(doc, word, word)
			}
		}
		if theta := m.FoldIn(strings.Join(doc, " "), 3); m.K() < 1 || len(theta) != m.K() {
			t.Fatalf("fold-in gave %d topic weights, want K=%d >= 1", len(theta), m.K())
		}
	})
}
