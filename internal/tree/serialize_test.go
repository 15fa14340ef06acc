package tree

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"telcochurn/internal/codec"
)

func TestForestRoundTrip(t *testing.T) {
	d := separable(400, 31)
	d.FeatureNames = []string{"signal", "noise"}
	f, err := FitForest(d, ForestConfig{NumTrees: 12, MinLeafSamples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.roots) != len(f.roots) || got.numClasses != f.numClasses {
		t.Fatalf("shape mismatch: %d/%d trees, %d/%d classes",
			len(got.roots), len(f.roots), got.numClasses, f.numClasses)
	}
	// Identical predictions and attributions everywhere we probe.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.NormFloat64()}
		if treeAverage(got, x)[1] != treeAverage(f, x)[1] {
			t.Fatalf("score mismatch at %v", x)
		}
		b1, c1 := f.Contributions(x)
		b2, c2 := got.Contributions(x)
		if b1 != b2 {
			t.Fatal("bias mismatch after round trip")
		}
		for j := range c1 {
			if c1[j] != c2[j] {
				t.Fatal("contribution mismatch after round trip")
			}
		}
	}
	// Metadata preserved.
	if got.FeatureNames()[0] != "signal" {
		t.Errorf("feature names = %v", got.FeatureNames())
	}
	gi, fi := got.Importance(), f.Importance()
	for j := range fi {
		if gi[j] != fi[j] {
			t.Fatal("importance mismatch after round trip")
		}
	}
}

func TestForestRoundTripMultiClass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := separable(300, 32)
	for i := range d.Y {
		if rng.Float64() < 0.2 {
			d.Y[i] = 2
		}
	}
	f, err := FitForest(d, ForestConfig{NumTrees: 8, MinLeafSamples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.7, 0.1}
	p1, p2 := treeAverage(f, x), treeAverage(got, x)
	for c := range p1 {
		if p1[c] != p2[c] {
			t.Fatal("multi-class proba mismatch")
		}
	}
}

func TestReadForestRejectsCorruption(t *testing.T) {
	d := separable(300, 33)
	f, err := FitForest(d, ForestConfig{NumTrees: 5, MinLeafSamples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x55
	if _, err := ReadForest(bytes.NewReader(data)); !errors.Is(err, ErrBadModel) {
		t.Errorf("corrupted model error = %v, want ErrBadModel", err)
	}
	// Truncation.
	if _, err := ReadForest(bytes.NewReader(data[:10])); !errors.Is(err, ErrBadModel) {
		t.Errorf("truncated model error = %v, want ErrBadModel", err)
	}
	// Wrong magic.
	if _, err := ReadForest(bytes.NewReader([]byte("NOPE12345678"))); !errors.Is(err, ErrBadModel) {
		t.Errorf("bad magic error = %v, want ErrBadModel", err)
	}
}

// encodedModel is one sealed TCRF model file.
type encodedModel struct {
	name string
	data []byte
}

// unscorableModels encodes forests that decode cleanly but cannot score:
// one with no trees (its average is 0/0) and ones carrying a NaN or ±Inf
// class probability, which would reach every score that lands there.
// Then come hand-encoded one-tree forests that fail on their own bytes: a
// leaf claiming 2^31 training instances (past the row limit and the int32
// count a node keeps), one class, an unknown node tag, and a split on a
// feature the forest does not name.
func unscorableModels(tb testing.TB) []encodedModel {
	tb.Helper()
	d := separable(200, 3)
	fit := func() *Forest {
		f, err := FitForest(d, ForestConfig{NumTrees: 1, MaxDepth: 2, MinLeafSamples: 10, Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		if f.feats[f.roots[0]] < 0 {
			tb.Fatal("fitted tree is a bare leaf")
		}
		return f
	}
	var out []encodedModel
	add := func(name string, f *Forest) {
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, encodedModel{name, buf.Bytes()})
	}

	f := fit()
	f.roots = nil
	add("forest without trees", f)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := fit()
		i := f.roots[0]
		for f.feats[i] >= 0 {
			i = f.kids[i]
		}
		f.probs[2*i+1] = v
		add(fmt.Sprintf("forest leaf probability %v", v), f)
	}
	f = fit()
	f.probs[2*f.roots[0]] = math.NaN()
	add("forest split distribution NaN", f)

	// hand encodes a one-tree forest of the given class count over one
	// feature, "x", whose tree node writes.
	hand := func(name string, classes uint64, node func(w *codec.Writer)) {
		var buf bytes.Buffer
		w := codec.NewWriter(&buf, forestMagic)
		w.Uvarint(classes)
		w.Strs([]string{"x"})
		w.Floats([]float64{1}) // importance
		w.Uvarint(1)           // trees
		node(w)
		w.Close()
		out = append(out, encodedModel{name, buf.Bytes()})
	}
	// leaf writes a leaf over n instances: tag, n, class distribution.
	leaf := func(n uint64) func(w *codec.Writer) {
		return func(w *codec.Writer) {
			w.Uvarint(0)
			w.Uvarint(n)
			w.Float(0.5)
			w.Float(0.5)
		}
	}
	hand("leaf count 2^31", 2, leaf(1<<31))
	hand("one class", 1, leaf(1))
	hand("node tag 2", 2, func(w *codec.Writer) { w.Uvarint(2) })
	hand("split feature 1 of 1", 2, func(w *codec.Writer) {
		w.Uvarint(1) // split: tag, feature, threshold, n, class distribution
		w.Uvarint(1)
		w.Float(0.5)
		w.Uvarint(2)
		w.Float(0.5)
		w.Float(0.5)
		leaf(1)(w)
		leaf(1)(w)
	})
	return out
}

// TestReadModelRejectsUnscorable: every unscorable encoding is ErrBadModel,
// which core.Load reports as a bad artifact, instead of a model that
// serves NaN.
func TestReadModelRejectsUnscorable(t *testing.T) {
	for _, m := range unscorableModels(t) {
		if _, err := ReadForest(bytes.NewReader(m.data)); !errors.Is(err, ErrBadModel) {
			t.Errorf("%s: error = %v, want ErrBadModel", m.name, err)
		}
	}
}
