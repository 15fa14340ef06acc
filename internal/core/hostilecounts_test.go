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
