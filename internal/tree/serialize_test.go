package tree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
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
	if got.NumTrees() != f.NumTrees() || got.NumClasses() != f.NumClasses() {
		t.Fatalf("shape mismatch: %d/%d trees, %d/%d classes",
			got.NumTrees(), f.NumTrees(), got.NumClasses(), f.NumClasses())
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

func TestGBDTRoundTrip(t *testing.T) {
	d := separable(400, 34)
	g, err := FitGBDT(d, GBDTConfig{NumTrees: 25, MinLeafSamples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := g.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadGBDT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTrees() != g.NumTrees() {
		t.Fatalf("tree count %d, want %d", got.NumTrees(), g.NumTrees())
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.NormFloat64()}
		if roundSum(got, x) != roundSum(g, x) {
			t.Fatalf("score mismatch at %v", x)
		}
	}
}

func TestReadGBDTRejectsCorruption(t *testing.T) {
	d := separable(300, 35)
	g, err := FitGBDT(d, GBDTConfig{NumTrees: 5, MinLeafSamples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x55
	if _, err := ReadGBDT(bytes.NewReader(data)); !errors.Is(err, ErrBadModel) {
		t.Errorf("corrupted model error = %v, want ErrBadModel", err)
	}
	// A forest file is not a GBDT file.
	f, err := FitForest(d, ForestConfig{NumTrees: 3, MinLeafSamples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var fbuf bytes.Buffer
	if _, err := f.WriteTo(&fbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGBDT(&fbuf); !errors.Is(err, ErrBadModel) {
		t.Errorf("cross-format error = %v, want ErrBadModel", err)
	}
}

// encodedModel is one sealed TCRF (boosted false) or TCGB model file.
type encodedModel struct {
	name    string
	boosted bool
	data    []byte
}

// unscorableModels encodes models that decode cleanly but cannot score:
// a forest with no trees (its average is 0/0) and ensembles carrying a
// NaN or ±Inf payload, which would reach every score that lands there.
func unscorableModels(tb testing.TB) []encodedModel {
	tb.Helper()
	d := separable(200, 3)
	fit := func() *Forest {
		f, err := FitForest(d, ForestConfig{NumTrees: 1, MaxDepth: 2, MinLeafSamples: 10, Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		if f.trees[0].root.isLeaf() {
			tb.Fatal("fitted tree is a bare leaf")
		}
		return f
	}
	boost := func() *GBDT {
		g, err := FitGBDT(d, GBDTConfig{NumTrees: 1, MaxDepth: 2, MinLeafSamples: 10, Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		return g
	}
	leftmost := func(nd *node) *node {
		for !nd.isLeaf() {
			nd = nd.left
		}
		return nd
	}
	var out []encodedModel
	add := func(name string, m io.WriterTo) {
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			tb.Fatal(err)
		}
		_, boosted := m.(*GBDT)
		out = append(out, encodedModel{name, boosted, buf.Bytes()})
	}

	f := fit()
	f.trees = nil
	add("forest without trees", f)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := fit()
		leftmost(f.trees[0].root).probs[1] = v
		add(fmt.Sprintf("forest leaf probability %v", v), f)
	}
	f = fit()
	f.trees[0].root.probs[0] = math.NaN()
	add("forest split distribution NaN", f)

	g := boost()
	g.bias = math.NaN()
	add("gbdt bias NaN", g)
	g = boost()
	g.lr = math.Inf(1)
	add("gbdt learning rate +Inf", g)
	for _, v := range []float64{math.NaN(), math.Inf(-1)} {
		g := boost()
		leftmost(g.trees[0].root).value = v
		add(fmt.Sprintf("gbdt leaf value %v", v), g)
	}
	return out
}

// TestReadModelRejectsUnscorable: every unscorable encoding is ErrBadModel,
// which core.Load reports as a bad artifact, instead of a model that
// serves NaN.
func TestReadModelRejectsUnscorable(t *testing.T) {
	for _, m := range unscorableModels(t) {
		var err error
		if m.boosted {
			_, err = ReadGBDT(bytes.NewReader(m.data))
		} else {
			_, err = ReadForest(bytes.NewReader(m.data))
		}
		if !errors.Is(err, ErrBadModel) {
			t.Errorf("%s: error = %v, want ErrBadModel", m.name, err)
		}
	}
}
