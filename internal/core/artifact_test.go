package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"telcochurn/internal/features"
	"telcochurn/internal/fm"
	"telcochurn/internal/linear"
	"telcochurn/internal/synth"
	"telcochurn/internal/tree"
)

// artifactWorld simulates a small world once for all artifact tests.
func artifactWorld(t *testing.T) (Source, []WindowSpec, features.Window) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Customers = 400
	cfg.Months = 4
	cfg.Seed = 7
	months := synth.Simulate(cfg)
	src := NewMemorySource(months, cfg.DaysPerMonth)
	return src, []WindowSpec{MonthSpec(2, cfg.DaysPerMonth)}, features.MonthWindow(3, cfg.DaysPerMonth)
}

func fitSaveLoadPredict(t *testing.T, src Source, train []WindowSpec, win features.Window, cfg Config) {
	t.Helper()
	p, err := Fit(src, train, cfg)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	want, err := p.Predict(src, win)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}

	var buf bytes.Buffer
	n, err := p.Save(&buf)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if int64(buf.Len()) != n {
		t.Errorf("Save reported %d bytes, wrote %d", n, buf.Len())
	}
	q, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if q.Classifier().Name() != p.Classifier().Name() {
		t.Errorf("classifier %q, want %q", q.Classifier().Name(), p.Classifier().Name())
	}
	gotNames, wantNames := q.FeatureNames(), p.FeatureNames()
	if len(gotNames) != len(wantNames) {
		t.Fatalf("feature names: %d vs %d", len(gotNames), len(wantNames))
	}
	for i := range wantNames {
		if gotNames[i] != wantNames[i] {
			t.Fatalf("feature %d: %q vs %q", i, gotNames[i], wantNames[i])
		}
	}
	if q.SchemaChecksum() != p.SchemaChecksum() {
		t.Error("schema checksum changed across the round trip")
	}

	got, err := q.Predict(src, win)
	if err != nil {
		t.Fatalf("predict after load: %v", err)
	}
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("prediction count %d, want %d", len(got.IDs), len(want.IDs))
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("id %d: %d vs %d", i, got.IDs[i], want.IDs[i])
		}
		if got.Scores[i] != want.Scores[i] {
			t.Fatalf("score for customer %d not bit-identical: %v vs %v",
				want.IDs[i], got.Scores[i], want.Scores[i])
		}
	}
}

// TestArtifactRoundTrip checks save -> load -> Predict bit-identity for
// every built-in classifier family.
func TestArtifactRoundTrip(t *testing.T) {
	src, train, win := artifactWorld(t)
	forest := tree.ForestConfig{NumTrees: 12, MinLeafSamples: 10, Seed: 1}
	cases := map[string]Config{
		"RF":        {Forest: forest, Seed: 1},
		"GBDT":      {Classifier: &GBDTClassifier{Config: tree.GBDTConfig{NumTrees: 15, MaxDepth: 3, MinLeafSamples: 10, Seed: 1}}, Seed: 1},
		"LIBLINEAR": {Classifier: &LinearClassifier{Config: linear.Config{Epochs: 5, Seed: 1}}, Seed: 1},
		"LIBFM":     {Classifier: &FMClassifier{Config: fm.Config{Epochs: 5, Seed: 1}}, Seed: 1},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			fitSaveLoadPredict(t, src, train, win, cfg)
		})
	}
}

// TestArtifactRoundTripAllGroups exercises the fitted-feature-model
// sections: topic featurizers (F7/F8) and the FM second-order selector (F9)
// must fold in and apply bit-identically after a round trip.
func TestArtifactRoundTripAllGroups(t *testing.T) {
	src, train, win := artifactWorld(t)
	cfg := Config{
		Groups: features.AllGroups(),
		Forest: tree.ForestConfig{NumTrees: 8, MinLeafSamples: 10, Seed: 1},
		TopicK: 4,
		Seed:   1,
	}
	fitSaveLoadPredict(t, src, train, win, cfg)
}

// TestArtifactWorkerInvariance pins the determinism guarantee at the byte
// level: training the same pipeline under different parallelism must yield
// identical artifacts (Workers is runtime-only and is not persisted).
func TestArtifactWorkerInvariance(t *testing.T) {
	src, train, _ := artifactWorld(t)
	var bundles [2][]byte
	for i, workers := range []int{1, 8} {
		p, err := Fit(src, train, Config{
			Forest:  tree.ForestConfig{NumTrees: 8, MinLeafSamples: 10, Seed: 1, Workers: workers},
			Seed:    1,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		bundles[i] = buf.Bytes()
	}
	if !bytes.Equal(bundles[0], bundles[1]) {
		t.Fatal("artifact bytes differ between Workers=1 and Workers=8")
	}
}

func TestArtifactFile(t *testing.T) {
	src, train, win := artifactWorld(t)
	p, err := Fit(src, train, Config{Forest: tree.ForestConfig{NumTrees: 6, MinLeafSamples: 10, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.tcpa")
	if err := p.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	q, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	want, _ := p.Predict(src, win)
	got, err := q.Predict(src, win)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Scores {
		if got.Scores[i] != want.Scores[i] {
			t.Fatal("file round trip not bit-identical")
		}
	}
}

func TestArtifactRejectsCorruption(t *testing.T) {
	src, train, _ := artifactWorld(t)
	p, err := Fit(src, train, Config{Forest: tree.ForestConfig{NumTrees: 4, MinLeafSamples: 20, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flipped byte anywhere in the body fails the checksum.
	data := append([]byte(nil), good...)
	data[len(data)/2] ^= 0x20
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrBadArtifact) {
		t.Errorf("corrupt body: err = %v, want ErrBadArtifact", err)
	}
	// Truncation.
	if _, err := Load(bytes.NewReader(good[:len(good)/3])); !errors.Is(err, ErrBadArtifact) {
		t.Errorf("truncated: err = %v, want ErrBadArtifact", err)
	}
	// Wrong magic.
	if _, err := Load(bytes.NewReader([]byte("NOPE123456789"))); !errors.Is(err, ErrBadArtifact) {
		t.Errorf("bad magic: err = %v, want ErrBadArtifact", err)
	}
	// A bare forest file is not a pipeline artifact.
	var fbuf bytes.Buffer
	rf := p.Classifier().(*RFClassifier)
	if _, err := rf.Forest().WriteTo(&fbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&fbuf); !errors.Is(err, ErrBadArtifact) {
		t.Errorf("forest file: err = %v, want ErrBadArtifact", err)
	}
}

func TestArtifactVersionMismatch(t *testing.T) {
	src, train, _ := artifactWorld(t)
	p, err := Fit(src, train, Config{Forest: tree.ForestConfig{NumTrees: 4, MinLeafSamples: 20, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(artifactMagic)] = ArtifactVersion + 9
	_, err = Load(bytes.NewReader(data))
	if !errors.Is(err, ErrArtifactVersion) {
		t.Errorf("future version: err = %v, want ErrArtifactVersion", err)
	}
	if errors.Is(err, ErrBadArtifact) {
		t.Error("version mismatch should be distinguishable from corruption")
	}
}

func TestSaveUnfittedPipeline(t *testing.T) {
	p := NewFrameBuilder(Config{})
	var buf bytes.Buffer
	if _, err := p.Save(&buf); err == nil {
		t.Error("want error saving a frame-builder pipeline")
	}
}
