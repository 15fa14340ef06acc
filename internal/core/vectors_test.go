package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"telcochurn/internal/features"
	"telcochurn/internal/tree"
)

func precomputedPipeline(t *testing.T) (*Pipeline, Source, features.Window) {
	t.Helper()
	src, train, win := artifactWorld(t)
	p, err := Fit(src, train, Config{
		Groups: []features.Group{features.F1Baseline, features.F2CS},
		Forest: tree.ForestConfig{NumTrees: 10, MinLeafSamples: 10, Seed: 3},
		Seed:   3,
	})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if err := p.Precompute(src, win, 3); err != nil {
		t.Fatalf("precompute: %v", err)
	}
	return p, src, win
}

// TestPredictVectorsMatchesPredict: the precomputed snapshot scores
// bit-identically to the frame path over the same window.
func TestPredictVectorsMatchesPredict(t *testing.T) {
	p, src, win := precomputedPipeline(t)
	want, err := p.Predict(src, win)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	got, err := p.PredictVectors()
	if err != nil {
		t.Fatalf("predict vectors: %v", err)
	}
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("row count %d, want %d", len(got.IDs), len(want.IDs))
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("id[%d] = %d, want %d", i, got.IDs[i], want.IDs[i])
		}
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("score for %d not bit-identical: %v vs %v", want.IDs[i], got.Scores[i], want.Scores[i])
		}
	}
	if v := p.Vectors(); v.Month() != 3 || v.NumRows() != len(want.IDs) || v.Width() != len(p.FeatureNames()) {
		t.Fatalf("vectors shape month=%d rows=%d width=%d", v.Month(), v.NumRows(), v.Width())
	}
}

// TestVectorsArtifactRoundTrip: a v2 bundle with vectors loads them back
// bit-identically, and serving from the loaded snapshot matches the saved
// pipeline exactly.
func TestVectorsArtifactRoundTrip(t *testing.T) {
	p, _, _ := precomputedPipeline(t)
	want, err := p.PredictVectors()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := p.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	q, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	v := q.Vectors()
	if v == nil {
		t.Fatal("loaded pipeline lost its vectors")
	}
	got, err := q.PredictVectors()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] || math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("row %d drifted across the round trip", i)
		}
	}

	// Point lookups come back as the exact persisted rows, alloc-free.
	pv := p.Vectors()
	for _, id := range pv.IDs()[:10] {
		a, ok1 := pv.Vector(id)
		b, ok2 := v.Vector(id)
		if !ok1 || !ok2 {
			t.Fatalf("customer %d missing from a snapshot", id)
		}
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("vector cell (%d,%d) drifted", id, j)
			}
		}
	}
	if _, ok := v.Vector(-12345); ok {
		t.Fatal("lookup of an unknown customer succeeded")
	}
	x := v.IDs()[0]
	if n := testing.AllocsPerRun(200, func() { v.Vector(x) }); n != 0 {
		t.Errorf("Vector allocates %.1f/op, want 0", n)
	}
}

// TestArtifactWithoutVectors: pipelines saved without Precompute stay
// loadable and report ErrNoVectors from the vectors path.
func TestArtifactWithoutVectors(t *testing.T) {
	src, train, _ := artifactWorld(t)
	p, err := Fit(src, train, Config{
		Forest: tree.ForestConfig{NumTrees: 8, MinLeafSamples: 10, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if q.Vectors() != nil {
		t.Fatal("vectors materialized from nowhere")
	}
	if _, err := q.PredictVectors(); !errors.Is(err, ErrNoVectors) {
		t.Fatalf("PredictVectors error = %v, want ErrNoVectors", err)
	}
}

// TestLoadV1Artifact: a hand-downgraded v1 bundle (the pre-vectors layout)
// still loads. The vectors section is the only v2 addition, so a v1 body is
// byte-identical to a v2 body minus the trailing optional section.
func TestLoadV1Artifact(t *testing.T) {
	src, train, win := artifactWorld(t)
	p, err := Fit(src, train, Config{
		Forest: tree.ForestConfig{NumTrees: 8, MinLeafSamples: 10, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Predict(src, win)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := writeAsV1(t, buf.Bytes())
	q, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("load v1: %v", err)
	}
	got, err := q.Predict(src, win)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Scores {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("v1 score %d drifted", i)
		}
	}
}

// writeAsV1 rewrites a vectors-free v2 bundle as version 1: flip the version
// byte, drop the trailing `0` presence flag, and restamp the CRC. This is
// exactly the byte stream the previous release wrote.
func writeAsV1(t *testing.T, v2 []byte) []byte {
	t.Helper()
	if len(v2) < 10 {
		t.Fatal("bundle too short")
	}
	body := append([]byte(nil), v2[:len(v2)-5]...) // drop presence flag + CRC32
	body[len(artifactMagic)] = 1
	// Restamp the CRC over the body (everything after magic + version).
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(body[len(artifactMagic)+1:]))
	return append(body, tail[:]...)
}
