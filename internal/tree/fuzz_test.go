package tree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

// FuzzReadModel takes a TCRF body and seals it (magic + CRC) itself, so
// mutations reach the node decoder instead of dying at the checksum.
// Whatever the bytes: ErrBadModel, or a forest that scores an all-NaN and
// an all-zero row of its width without panicking, and re-encodes to
// exactly the same bytes (the reader takes only the shortest varints the
// writer spells).
//
// The seeds are small forests — one to three trees, exact and binned
// splits, two and three classes — plus the unscorable ones (no trees, NaN
// or ±Inf payloads, a bad count, class count, tag or split feature) that
// must come back ErrBadModel. Bodies over 256 bytes are skipped: a
// structural flaw shows in a small forest, and minimizing each new input
// costs time quadratic in its length, which a 10 s run cannot spare.
func FuzzReadModel(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct{ trees, depth, feats, classes, bins int }{
		{1, 1, 1, 2, 0}, {1, 1, 1, 2, 0}, {1, 1, 1, 2, 0}, {1, 2, 2, 2, 0}, {1, 1, 3, 3, 0},
		{2, 1, 1, 2, 0}, {3, 1, 2, 2, 0}, {1, 2, 2, 2, 4}, {2, 1, 2, 3, 0},
	} {
		d := noisyDataset(rng, 200, s.feats, s.classes)
		m, err := FitForest(d, ForestConfig{NumTrees: s.trees, MaxDepth: s.depth, MinLeafSamples: 10, Seed: 1, MaxBins: s.bins})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[len(forestMagic) : buf.Len()-4])
	}
	for _, m := range unscorableModels(f) {
		f.Add(m.data[len(forestMagic) : len(m.data)-4])
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 256 {
			return
		}
		data := binary.LittleEndian.AppendUint32(append([]byte(forestMagic), body...), crc32.ChecksumIEEE(body))
		m, err := ReadForest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadModel) {
				t.Fatalf("%v is not ErrBadModel", err)
			}
			return
		}
		for _, v := range []float64{math.NaN(), 0} {
			x := make([]float64, len(m.FeatureNames()))
			for i := range x {
				x[i] = v
			}
			m.Score(x)
			m.PredictProba(x)
		}
		var enc bytes.Buffer
		if _, err := m.WriteTo(&enc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), data) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", data, enc.Bytes())
		}
	})
}
