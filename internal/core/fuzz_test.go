package core

import (
	"bytes"
	"errors"
	"testing"

	"telcochurn/internal/features"
	"telcochurn/internal/synth"
	"telcochurn/internal/tree"
)

// FuzzLoad drives whole artifacts through Load, the bytes churnd boots
// from. Whatever the input: ErrBadArtifact, ErrArtifactVersion, or a
// pipeline whose Save writes the input back byte for byte (and whose
// snapshot, if it has one, scores) — never a panic.
//
// The seeds are saved forest pipelines: F1 alone and every group with
// topics and second-order features, each with and without a precomputed
// vector snapshot. The target reseals the trailing checksum over whatever
// body it is given, so mutations reach the config, featurizer and vector
// decoders instead of ending at the checksum (a torn or bit-flipped file is
// TestArtifactRejectsCorruption's); the forest body's hostile shapes are
// FuzzReadModel's. The seeds run to kilobytes, and minimizing each new
// input for the default 60 s would stall a short run, so make chaos caps
// minimization at 1 s.
func FuzzLoad(f *testing.F) {
	cfg := synth.DefaultConfig()
	cfg.Customers, cfg.Months, cfg.Seed = 24, 3, 11
	src := NewMemorySource(synth.Simulate(cfg), cfg.DaysPerMonth)
	train := []WindowSpec{MonthSpec(1, cfg.DaysPerMonth)}
	for _, groups := range [][]features.Group{{features.F1Baseline}, features.AllGroups()} {
		p, err := Fit(src, train, Config{
			Groups: groups,
			Forest: tree.ForestConfig{NumTrees: 2, MinLeafSamples: 10, Seed: 1, Workers: 1},
			TopicK: 2,
			Seed:   1,
		})
		if err != nil {
			f.Fatal(err)
		}
		if len(groups) > 1 && (p.complaints == nil || p.search == nil || p.so == nil) {
			f.Fatal("an all-groups seed lacks a fitted feature model")
		}
		for _, precompute := range []bool{false, true} {
			if precompute {
				if err := p.Precompute(src, features.MonthWindow(2, cfg.DaysPerMonth), 2); err != nil {
					f.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if _, err := p.Save(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= len(artifactMagic)+1+4 {
			data = resealed(data, func(body []byte) []byte { return body })
		}
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadArtifact) && !errors.Is(err, ErrArtifactVersion) {
				t.Fatalf("%v is neither ErrBadArtifact nor ErrArtifactVersion", err)
			}
			return
		}
		var enc bytes.Buffer
		if _, err := p.Save(&enc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), data) {
			t.Fatalf("Save after Load wrote %d bytes that differ from the %d loaded", enc.Len(), len(data))
		}
		if p.Vectors() != nil {
			if _, err := p.PredictVectors(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
