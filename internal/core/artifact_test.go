package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"telcochurn/internal/codec"
	"telcochurn/internal/features"
	"telcochurn/internal/sampling"
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
// the forest, the one classifier the artifact persists.
func TestArtifactRoundTrip(t *testing.T) {
	src, train, win := artifactWorld(t)
	t.Run("RF", func(t *testing.T) {
		fitSaveLoadPredict(t, src, train, win, Config{Forest: tree.ForestConfig{NumTrees: 12, MinLeafSamples: 10, Seed: 1}, Seed: 1})
	})
}

// TestSaveRejectsNonForest: the in-memory families (Fig. 9) have no wire
// format, so Save fails and names the classifier instead of writing a
// bundle nothing can load.
func TestSaveRejectsNonForest(t *testing.T) {
	for _, clf := range []Classifier{&GBDTClassifier{}, &LinearClassifier{}, &FMClassifier{}} {
		var buf bytes.Buffer
		_, err := (&Pipeline{featNames: []string{"x"}, clf: clf}).Save(&buf)
		if err == nil || !strings.Contains(err.Error(), clf.Name()) || !strings.Contains(err.Error(), "not persistable") {
			t.Errorf("%s: Save error = %v, want one naming it not persistable", clf.Name(), err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: Save wrote %d bytes before failing", clf.Name(), buf.Len())
		}
	}
}

// TestLoadRejectsOtherClassifierTags: a bundle of the current version whose
// classifier section is tagged anything but RF (here GBDT, a tag earlier
// versions wrote) is corrupt, not a model to guess at.
func TestLoadRejectsOtherClassifierTags(t *testing.T) {
	var buf bytes.Buffer
	cw := codec.NewWriter(&buf, artifactMagic+string([]byte{ArtifactVersion}))
	cw.Uvarint(1) // groups: F1
	cw.Uvarint(uint64(features.F1Baseline))
	cw.Uvarint(uint64(sampling.WeightedInstance))
	cw.Uvarint(10) // topics
	cw.Uvarint(20) // second-order pairs
	cw.Int(1)      // seed
	cw.Uvarint(10) // stable seed stride
	cw.Strs(nil)   // feature names and their checksum
	cw.Uvarint(uint64(schemaChecksum(nil)))
	for range 3 {
		cw.Uvarint(0) // no complaint topics, search topics or second order
	}
	cw.Str("GBDT")
	cw.Bytes(nil)
	cw.Uvarint(0) // no vectors
	if _, err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if !errors.Is(err, ErrBadArtifact) || !strings.Contains(err.Error(), `classifier tag "GBDT"`) {
		t.Errorf("GBDT-tagged bundle: err = %v, want ErrBadArtifact naming the tag", err)
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

	// Bodies under a valid checksum that Save could not have written: Load
	// takes only what Save writes. The config opens the body with one byte
	// per field (group count, group, imbalance, TopicK = 10, pairs, seed,
	// stride); the schema checksum follows the names.
	const topicK = 3
	if body := good[len(artifactMagic)+1:]; body[topicK] != 10 {
		t.Fatalf("fixture: body byte %d is %d, not TopicK", topicK, body[topicK])
	}
	var names bytes.Buffer
	nw := codec.NewWriter(&names, "")
	nw.Strs(p.FeatureNames())
	if _, err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	sumAt := 7 + names.Len() - 4
	for _, tc := range []struct {
		name string
		edit func(body []byte) []byte
	}{
		{"TopicK left at zero", func(b []byte) []byte { b[topicK] = 0; return b }},
		{"TopicK in two bytes", func(b []byte) []byte { return slices.Concat(b[:topicK], []byte{0x8a, 0}, b[topicK+1:]) }},
		{"33-bit schema checksum", func(b []byte) []byte {
			sum, n := binary.Uvarint(b[sumAt:])
			return slices.Concat(b[:sumAt], binary.AppendUvarint(nil, sum|1<<32), b[sumAt+n:])
		}},
	} {
		if _, err := Load(bytes.NewReader(resealed(good, tc.edit))); !errors.Is(err, ErrBadArtifact) {
			t.Errorf("%s: err = %v, want ErrBadArtifact", tc.name, err)
		}
	}
}

// resealed returns the artifact with its body rewritten by edit under a
// recomputed trailing checksum, the bytes a writer that meant them would
// have produced.
func resealed(data []byte, edit func(body []byte) []byte) []byte {
	head := len(artifactMagic) + 1
	body := edit(slices.Clone(data[head : len(data)-4]))
	return binary.LittleEndian.AppendUint32(slices.Concat(data[:head], body), crc32.ChecksumIEEE(body))
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
	// Versions 1 and 2 (no reader is kept for them) and a future one.
	for _, v := range []byte{1, 2, ArtifactVersion + 1, ArtifactVersion + 9} {
		data := append([]byte(nil), buf.Bytes()...)
		data[len(artifactMagic)] = v
		_, err = Load(bytes.NewReader(data))
		if !errors.Is(err, ErrArtifactVersion) || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", v)) {
			t.Errorf("version %d: err = %v, want ErrArtifactVersion naming the version", v, err)
		}
		if errors.Is(err, ErrBadArtifact) {
			t.Errorf("version %d: a version mismatch should be distinguishable from corruption", v)
		}
	}
}

func TestSaveUnfittedPipeline(t *testing.T) {
	p := NewFrameBuilder(Config{})
	var buf bytes.Buffer
	if _, err := p.Save(&buf); err == nil {
		t.Error("want error saving a frame-builder pipeline")
	}
}
