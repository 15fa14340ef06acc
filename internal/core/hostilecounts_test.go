package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"telcochurn/internal/codec"
	"telcochurn/internal/features"
	"telcochurn/internal/fm"
	"telcochurn/internal/linear"
	"telcochurn/internal/topic"
	"telcochurn/internal/tree"
)

// TestHostileArtifactCountsRejected is store.TestCorruptCountsRejected for
// the artifact family. churnd loads these streams at boot (-model), and a
// checksum only proves the writer wrote the count, so every decoder that
// sizes a make from a stored count must turn an absurd one into its typed
// error: not a makeslice panic (1<<62) and not an allocation the count
// sizes (1<<33 — an out-of-memory death no recover catches).
func TestHostileArtifactCountsRejected(t *testing.T) {
	const magic = "TEST"
	viaCodec := func(decode func(*codec.Reader) error) func([]byte) error {
		return func(data []byte) error {
			rd, err := codec.NewReaderBytes(data, magic)
			if err != nil {
				return err
			}
			return decode(rd)
		}
	}
	for _, tc := range []struct {
		name   string
		magic  string
		prefix func(w *codec.Writer, count uint64) // everything up to and including the count
		decode func([]byte) error
		want   error
	}{
		{"codec.Floats", magic,
			func(w *codec.Writer, n uint64) { w.Uvarint(n) },
			viaCodec(func(rd *codec.Reader) error { rd.Floats(); return rd.Err() }), codec.ErrCorrupt},
		{"fm.DecodeModel V", magic,
			func(w *codec.Writer, n uint64) { w.Float(0.5); w.Floats(nil); w.Uvarint(n) },
			viaCodec(func(rd *codec.Reader) error { _, err := fm.DecodeModel(rd); return err }), codec.ErrCorrupt},
		{"features.DecodeSecondOrder pairs", magic,
			func(w *codec.Writer, n uint64) { w.Strs(nil); w.Floats(nil); w.Floats(nil); w.Uvarint(n) },
			viaCodec(func(rd *codec.Reader) error { _, err := features.DecodeSecondOrder(rd); return err }), codec.ErrCorrupt},
		{"linear.DecodeBinarizer cuts", magic,
			func(w *codec.Writer, n uint64) { w.Uvarint(n) },
			viaCodec(func(rd *codec.Reader) error { _, err := linear.DecodeBinarizer(rd); return err }), codec.ErrCorrupt},
		{"topic.Decode K = Phi rows", magic,
			func(w *codec.Writer, n uint64) {
				w.Uvarint(n) // K agrees with the row count, so the equality check passes
				w.Float(0.1)
				w.Float(0.01)
				w.Uvarint(10)
				w.Int(1)
				w.Strs(nil)
				w.Uvarint(n)
			},
			viaCodec(func(rd *codec.Reader) error { _, err := topic.Decode(rd); return err }), codec.ErrCorrupt},
		{"tree.ReadForest trees", "TCRF",
			func(w *codec.Writer, n uint64) { w.Uvarint(2); w.Strs(nil); w.Floats(nil); w.Uvarint(n) },
			func(data []byte) error { _, err := tree.ReadForest(bytes.NewReader(data)); return err }, tree.ErrBadModel},
		{"tree.ReadGBDT trees", "TCGB",
			func(w *codec.Writer, n uint64) { w.Float(0); w.Float(0.1); w.Uvarint(n) },
			func(data []byte) error { _, err := tree.ReadGBDT(bytes.NewReader(data)); return err }, tree.ErrBadModel},
	} {
		for _, count := range []uint64{1 << 62, 1 << 33} {
			t.Run(fmt.Sprintf("%s/%d", tc.name, count), func(t *testing.T) {
				var buf bytes.Buffer
				w := codec.NewWriter(&buf, tc.magic)
				tc.prefix(w, count)
				if _, err := w.Close(); err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := tc.decode(buf.Bytes())
				runtime.ReadMemStats(&after)
				if !errors.Is(err, tc.want) {
					t.Errorf("error = %v, want %v", err, tc.want)
				}
				if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
					t.Errorf("decoding %d hostile bytes allocated %d", buf.Len(), got)
				}
			})
		}
	}
}

// TestHostileSplitFeatureRejected: a split on a feature the scored rows do
// not have must fail the load with the typed error — not pass, then panic
// in the tree walker (feature 7 of 1), or wrap through int32 to
// feature 0 and score silently (2^32). The in-range rows are the controls.
func TestHostileSplitFeatureRejected(t *testing.T) {
	// Each file is one tree whose root splits on feat at 0.5 into two
	// leaves (tag, n, payload); the TCRF names one feature, "x".
	forestFile := func(feat uint64) []byte {
		var buf bytes.Buffer
		w := codec.NewWriter(&buf, "TCRF")
		w.Uvarint(2)           // classes
		w.Strs([]string{"x"})  // features
		w.Floats([]float64{1}) // importance
		w.Uvarint(1)           // trees
		w.Floats([]float64{1}) // the tree's importance
		w.Uvarint(1)           // split: tag, feature, threshold, n, class distribution
		w.Uvarint(feat)
		w.Float(0.5)
		w.Uvarint(2)
		w.Float(0.5)
		w.Float(0.5)
		for _, p := range []float64{0.2, 0.8} {
			w.Uvarint(0)
			w.Uvarint(1)
			w.Float(1 - p)
			w.Float(p)
		}
		w.Close()
		return buf.Bytes()
	}
	gbdtFile := func(feat uint64) []byte {
		var buf bytes.Buffer
		w := codec.NewWriter(&buf, "TCGB")
		w.Float(0)   // bias
		w.Float(0.1) // learning rate
		w.Uvarint(1) // trees
		w.Uvarint(1) // split: tag, feature, threshold, n
		w.Uvarint(feat)
		w.Float(0.5)
		w.Uvarint(2)
		for _, v := range []float64{-1, 1} {
			w.Uvarint(0)
			w.Uvarint(1)
			w.Float(v)
		}
		w.Close()
		return buf.Bytes()
	}
	readForest := func(feat uint64) error {
		_, err := tree.ReadForest(bytes.NewReader(forestFile(feat)))
		return err
	}
	readGBDT := func(feat uint64) error {
		_, err := tree.ReadGBDT(bytes.NewReader(gbdtFile(feat)))
		return err
	}
	// load bundles the model under a schema of the given width and loads
	// the bundle back.
	load := func(width int, clf Classifier) error {
		names := []string{"x", "y", "z"}[:width]
		var buf bytes.Buffer
		if _, err := (&Pipeline{featNames: names, clf: clf}).Save(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		return err
	}
	loadForest := func(width int) error {
		f, err := tree.ReadForest(bytes.NewReader(forestFile(0)))
		if err != nil {
			t.Fatal(err)
		}
		return load(width, &RFClassifier{forest: f})
	}
	loadGBDT := func(feat uint64, width int) error {
		g, err := tree.ReadGBDT(bytes.NewReader(gbdtFile(feat)))
		if err != nil {
			t.Fatal(err)
		}
		return load(width, &GBDTClassifier{model: g})
	}
	for _, tc := range []struct {
		name string
		err  func() error
		want error
	}{
		{"tree.ReadForest feature 0 of 1", func() error { return readForest(0) }, nil},
		{"tree.ReadForest feature 7 of 1", func() error { return readForest(7) }, tree.ErrBadModel},
		{"tree.ReadForest feature 2^32", func() error { return readForest(1 << 32) }, tree.ErrBadModel},
		{"tree.ReadGBDT feature 7", func() error { return readGBDT(7) }, nil},
		{"tree.ReadGBDT feature 2^32", func() error { return readGBDT(1 << 32) }, tree.ErrBadModel},
		{"core.Load RF of 1 feature, schema of 1", func() error { return loadForest(1) }, nil},
		{"core.Load RF of 1 feature, schema of 3", func() error { return loadForest(3) }, ErrBadArtifact},
		{"core.Load GBDT feature 2 of 3", func() error { return loadGBDT(2, 3) }, nil},
		{"core.Load GBDT feature 7 of 3", func() error { return loadGBDT(7, 3) }, ErrBadArtifact},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.err(); !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestHostileBinarizedArtifactRejected: a LIBFM or LIBLINEAR artifact
// whose parts do not fit each other or the schema must fail the load with
// the typed error — not load, then panic at score by indexing past the
// binarizer's cuts, an FM latent row or the model's weights. Every part is
// decoded from stream bytes, as a loaded artifact's are; the fitting shapes
// are the controls, and they score.
func TestHostileBinarizedArtifactRejected(t *testing.T) {
	const magic = "TEST"
	decode := func(write func(*codec.Writer), dec func(*codec.Reader) error) error {
		var buf bytes.Buffer
		w := codec.NewWriter(&buf, magic)
		write(w)
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := codec.NewReaderBytes(buf.Bytes(), magic)
		if err != nil {
			t.Fatal(err)
		}
		return dec(rd)
	}
	// writeFM writes an FM of the given weight count and latent row widths.
	writeFM := func(weights int, widths ...int) func(*codec.Writer) {
		return func(w *codec.Writer) {
			w.Float(0.1)
			w.Floats(make([]float64, weights))
			w.Uvarint(uint64(len(widths)))
			for i, k := range widths {
				row := make([]float64, k)
				for j := range row {
					row[j] = 0.1 * float64(i+j+1)
				}
				w.Floats(row)
			}
		}
	}
	// writeBinarizer writes a binarizer with cuts[j] boundaries for source
	// feature j and the given number of output names.
	writeBinarizer := func(names int, cuts ...int) func(*codec.Writer) {
		return func(w *codec.Writer) {
			w.Uvarint(uint64(len(cuts)))
			for _, c := range cuts {
				b := make([]float64, c)
				for i := range b {
					b[i] = float64(i)
				}
				w.Floats(b)
			}
			w.Strs(make([]string, names))
		}
	}
	outputs := func(cuts []int) int {
		n := 0
		for _, c := range cuts {
			n += c + 1
		}
		return n
	}
	readFM := func(weights int, widths ...int) error {
		return decode(writeFM(weights, widths...), func(rd *codec.Reader) error { _, err := fm.DecodeModel(rd); return err })
	}
	readBinarizer := func(names int, cuts ...int) error {
		return decode(writeBinarizer(names, cuts...), func(rd *codec.Reader) error { _, err := linear.DecodeBinarizer(rd); return err })
	}
	// load bundles clf under a schema of the given width, loads the bundle
	// back and, if it loads, scores one row of the schema's width.
	load := func(schema int, clf Classifier) error {
		var buf bytes.Buffer
		if _, err := (&Pipeline{featNames: []string{"x", "y", "z"}[:schema], clf: clf}).Save(&buf); err != nil {
			t.Fatal(err)
		}
		p, err := Load(&buf)
		if err == nil {
			p.clf.(SingleScorer).Score(make([]float64, schema))
		}
		return err
	}
	// binarizer decodes a binarizer that names all of its outputs.
	binarizer := func(cuts []int) *linear.Binarizer {
		var bin *linear.Binarizer
		if err := decode(writeBinarizer(outputs(cuts), cuts...), func(rd *codec.Reader) (err error) {
			bin, err = linear.DecodeBinarizer(rd)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return bin
	}
	loadFM := func(schema, width int, cuts ...int) error {
		c := &FMClassifier{bin: binarizer(cuts)}
		widths := make([]int, width)
		for i := range widths {
			widths[i] = 2
		}
		if err := decode(writeFM(width, widths...), func(rd *codec.Reader) (err error) {
			c.model, err = fm.DecodeModel(rd)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return load(schema, c)
	}
	loadLinear := func(schema, width int, cuts ...int) error {
		c := &LinearClassifier{bin: binarizer(cuts)}
		if err := decode(func(w *codec.Writer) { w.Float(0.2); w.Floats(make([]float64, width)) }, func(rd *codec.Reader) (err error) {
			c.model, err = linear.DecodeModel(rd)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return load(schema, c)
	}
	for _, tc := range []struct {
		name string
		err  func() error
		want error
	}{
		{"fm.DecodeModel 4 weights, 4 rows of 2", func() error { return readFM(4, 2, 2, 2, 2) }, nil},
		{"fm.DecodeModel row 3 of width 1", func() error { return readFM(4, 2, 2, 2, 1) }, codec.ErrCorrupt},
		{"fm.DecodeModel row 1 wider", func() error { return readFM(4, 2, 3, 2, 2) }, codec.ErrCorrupt},
		{"fm.DecodeModel 4 weights, 3 rows", func() error { return readFM(4, 2, 2, 2) }, codec.ErrCorrupt},
		{"fm.DecodeModel 3 weights, 4 rows", func() error { return readFM(3, 2, 2, 2, 2) }, codec.ErrCorrupt},
		{"linear.DecodeBinarizer 5 outputs, 5 names", func() error { return readBinarizer(5, 1, 2) }, nil},
		{"linear.DecodeBinarizer 5 outputs, 4 names", func() error { return readBinarizer(4, 1, 2) }, codec.ErrCorrupt},
		{"linear.DecodeBinarizer 5 outputs, 6 names", func() error { return readBinarizer(6, 1, 2) }, codec.ErrCorrupt},
		{"core.Load LIBFM fitting", func() error { return loadFM(2, 5, 1, 2) }, nil},
		{"core.Load LIBFM binarizer of 2 features, schema of 3", func() error { return loadFM(3, 5, 1, 2) }, ErrBadArtifact},
		{"core.Load LIBFM binarizer of 3 features, schema of 2", func() error { return loadFM(2, 7, 1, 2, 1) }, ErrBadArtifact},
		{"core.Load LIBFM model of 4, binarizer of 5", func() error { return loadFM(2, 4, 1, 2) }, ErrBadArtifact},
		{"core.Load LIBFM model of 6, binarizer of 5", func() error { return loadFM(2, 6, 1, 2) }, ErrBadArtifact},
		{"core.Load LIBLINEAR fitting", func() error { return loadLinear(2, 5, 1, 2) }, nil},
		{"core.Load LIBLINEAR binarizer of 2 features, schema of 1", func() error { return loadLinear(1, 5, 1, 2) }, ErrBadArtifact},
		{"core.Load LIBLINEAR model of 4, binarizer of 5", func() error { return loadLinear(2, 4, 1, 2) }, ErrBadArtifact},
		{"core.Load LIBLINEAR model of 6, binarizer of 5", func() error { return loadLinear(2, 6, 1, 2) }, ErrBadArtifact},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.err(); !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want %v", err, tc.want)
			}
		})
	}
}
