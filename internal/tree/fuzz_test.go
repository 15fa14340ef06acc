package tree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"testing"
)

// FuzzReadModel takes a TCRF or TCGB body and seals it (magic + CRC)
// itself, so mutations reach the node decoders instead of dying at the
// checksum. Whatever the bytes: ErrBadModel, or a model that compiles,
// scores an all-NaN and an all-zero row of its width without panicking,
// and re-encodes to the same bytes — strictly fewer only when the input
// spelled a varint non-minimally.
//
// The seeds are small models, plus the unscorable ones (no trees, NaN or
// ±Inf payloads) that must come back ErrBadModel. Bodies over 256 bytes
// are skipped: a structural flaw shows in a one-tree model, and minimizing
// each new input costs time quadratic in its length, which a 10 s run
// cannot spare.
func FuzzReadModel(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct {
		boosted               bool
		depth, feats, classes int
	}{
		{false, 1, 1, 2}, {false, 1, 1, 2}, {false, 1, 1, 2}, {false, 2, 2, 2}, {false, 1, 3, 3},
		{true, 1, 1, 2}, {true, 2, 2, 2},
	} {
		d := noisyDataset(rng, 200, s.feats, s.classes)
		var m io.WriterTo
		var err error
		if s.boosted {
			m, err = FitGBDT(d, GBDTConfig{NumTrees: 1, MaxDepth: s.depth, MinLeafSamples: 10, Seed: 1})
		} else {
			m, err = FitForest(d, ForestConfig{NumTrees: 1, MaxDepth: s.depth, MinLeafSamples: 10, Seed: 1})
		}
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(s.boosted, buf.Bytes()[len(forestMagic):buf.Len()-4])
	}
	for _, m := range unscorableModels(f) {
		f.Add(m.boosted, m.data[len(forestMagic):len(m.data)-4])
	}

	// decode reads a sealed model and returns it with its row width and a
	// function scoring one row through its compiled form.
	decode := func(boosted bool, data []byte) (io.WriterTo, int, func([]float64), error) {
		if boosted {
			g, err := ReadGBDT(bytes.NewReader(data))
			if err != nil {
				return nil, 0, nil, err
			}
			cg := g.Compile()
			return g, cg.Width(), func(x []float64) { cg.Score(x) }, nil
		}
		fo, err := ReadForest(bytes.NewReader(data))
		if err != nil {
			return nil, 0, nil, err
		}
		cf := fo.Compile()
		return fo, len(fo.FeatureNames()), func(x []float64) { cf.Score(x); cf.PredictProba(x) }, nil
	}

	f.Fuzz(func(t *testing.T, boosted bool, body []byte) {
		if len(body) > 256 {
			return
		}
		magic := forestMagic
		if boosted {
			magic = gbdtMagic
		}
		data := binary.LittleEndian.AppendUint32(append([]byte(magic), body...), crc32.ChecksumIEEE(body))
		m, width, score, err := decode(boosted, data)
		if err != nil {
			if !errors.Is(err, ErrBadModel) {
				t.Fatalf("%v is not ErrBadModel", err)
			}
			return
		}
		// A TCGB split feature may be any int32, and a probe that wide is
		// an allocation the input does not pay for; the walk is the same.
		if width <= 1<<16 {
			for _, v := range []float64{math.NaN(), 0} {
				x := make([]float64, width)
				for i := range x {
					x[i] = v
				}
				score(x)
			}
		}
		var enc bytes.Buffer
		if _, err := m.WriteTo(&enc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), data) && enc.Len() >= len(data) {
			t.Fatalf("re-encoding differs without being shorter:\n in  %x\n out %x", data, enc.Bytes())
		}
	})
}
