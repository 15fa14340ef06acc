package core

// Versioned pipeline-artifact persistence. A deployed churn system trains
// monthly but scores continuously (paper §5-6: the ranked list feeds the
// retention campaign loop), so the entire fitted pipeline — not just the
// forest — must survive process restarts and ship between the trainer and
// the scoring fleet. One bundle carries everything Predict needs: the
// schema version, the effective Config, the training feature names with
// their checksum, the fitted topic/second-order feature models, the
// serialized random forest and, optionally, the serving month's
// precomputed feature vectors. Round trips are bit-identical: every float is
// stored as its exact IEEE-754 bits, so a loaded pipeline scores exactly
// like the in-memory one that was saved.
//
// Layout: "TCPA" magic, one version byte (both outside the checksum, so a
// future reader can reject a newer version before parsing), then a codec
// body (see internal/codec) with a trailing CRC32.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"telcochurn/internal/codec"
	"telcochurn/internal/features"
	"telcochurn/internal/sampling"
	"telcochurn/internal/tree"
)

const artifactMagic = "TCPA"

// ArtifactVersion is the schema version this build writes and the only one
// it reads: Load answers any other with ErrArtifactVersion rather than
// guessing at the layout.
const ArtifactVersion = 3

var (
	// ErrBadArtifact is returned when a bundle fails structural or checksum
	// validation.
	ErrBadArtifact = errors.New("core: corrupt pipeline artifact")
	// ErrArtifactVersion is returned when a bundle's schema version is not
	// the one this build understands.
	ErrArtifactVersion = errors.New("core: unsupported artifact version")
)

// tagRF is the classifier tag stored in the bundle. It matches
// RFClassifier.Name, and it is the only one: the forest is the model
// churnctl train writes and churnd serves, while the other families are
// fitted and scored in memory only (Fig. 9).
const tagRF = "RF"

// Save serializes the fitted pipeline as one versioned bundle and returns
// the number of bytes written. It fails for a pipeline whose classifier is
// not the random forest and for unfitted frame-builder pipelines.
func (p *Pipeline) Save(w io.Writer) (int64, error) {
	if p.clf == nil {
		return 0, errors.New("core: cannot save an unfitted pipeline (NewFrameBuilder pipelines have no classifier)")
	}
	rf, ok := p.clf.(*RFClassifier)
	if !ok {
		return 0, fmt.Errorf("core: classifier %s (%T) is not persistable: only the random forest is", p.clf.Name(), p.clf)
	}
	var forest bytes.Buffer
	if _, err := rf.Forest().WriteTo(&forest); err != nil {
		return 0, err
	}
	cw := codec.NewWriter(w, artifactMagic+string([]byte{ArtifactVersion}))

	// Effective config (Fit already applied WithDefaults, so zero values
	// here are real, not placeholders).
	cw.Uvarint(uint64(len(p.cfg.Groups)))
	for _, g := range p.cfg.Groups {
		cw.Uvarint(uint64(g))
	}
	cw.Uvarint(uint64(p.cfg.Imbalance))
	cw.Uvarint(uint64(p.cfg.TopicK))
	cw.Uvarint(uint64(p.cfg.SecondOrderPairs))
	cw.Int(p.cfg.Seed)
	cw.Uvarint(uint64(p.cfg.StableSeedStride))
	// Workers is deliberately not persisted: it is a host-runtime knob with
	// no effect on results, and leaving it out keeps the artifact bytes
	// identical whatever parallelism the trainer ran with.

	// Training schema: names plus their own checksum, so a scorer can
	// compare a freshly built frame against the artifact in O(1) and a
	// mismatch names the column instead of mis-scoring silently.
	cw.Strs(p.featNames)
	cw.Uvarint(uint64(schemaChecksum(p.featNames)))

	// Fitted feature models (presence-flagged: only the groups that were
	// configured have them).
	encodeOptional(cw, p.complaints != nil, func() { p.complaints.Encode(cw) })
	encodeOptional(cw, p.search != nil, func() { p.search.Encode(cw) })
	encodeOptional(cw, p.so != nil, func() { p.so.Encode(cw) })

	// Classifier section: the tag, then the whole TCRF file.
	cw.Str(tagRF)
	cw.Bytes(forest.Bytes())

	// Optional precomputed feature-vector snapshot (see vectors.go).
	encodeOptional(cw, p.vectors != nil, func() { p.vectors.encode(cw) })
	return cw.Close()
}

// SaveFile writes the bundle atomically: to a temp file in the target
// directory, then rename, so a crashed save never leaves a truncated
// artifact where the scorer expects a valid one.
func (p *Pipeline) SaveFile(path string) error {
	tmp, err := os.CreateTemp(dirOf(path), ".artifact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := p.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			return path[:i+1]
		}
	}
	return "."
}

// Load deserializes a pipeline bundle written by Save. The result predicts
// bit-identically to the pipeline that was saved.
func Load(r io.Reader) (*Pipeline, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(artifactMagic)+1 || string(data[:len(artifactMagic)]) != artifactMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadArtifact)
	}
	if version := data[len(artifactMagic)]; version != ArtifactVersion {
		return nil, fmt.Errorf("%w: bundle is version %d, this build reads version %d",
			ErrArtifactVersion, version, ArtifactVersion)
	}
	rd, err := codec.NewReaderBytes(data, artifactMagic+string([]byte{ArtifactVersion}))
	if err != nil {
		return nil, badArtifact(err)
	}

	p := &Pipeline{}
	nGroups := int(rd.Uvarint())
	if nGroups > len(features.AllGroups()) {
		return nil, fmt.Errorf("%w: %d feature groups", ErrBadArtifact, nGroups)
	}
	for i := 0; i < nGroups; i++ {
		g := features.Group(rd.Uvarint())
		if g < features.F1Baseline || g > features.F9SecondOrder {
			return nil, fmt.Errorf("%w: unknown feature group %d", ErrBadArtifact, g)
		}
		p.cfg.Groups = append(p.cfg.Groups, g)
	}
	p.cfg.Imbalance = sampling.Method(rd.Uvarint())
	p.cfg.TopicK = int(rd.Uvarint())
	p.cfg.SecondOrderPairs = int(rd.Uvarint())
	p.cfg.Seed = rd.Int()
	p.cfg.StableSeedStride = int(rd.Uvarint())
	// Save writes the effective config, which has no field left at zero.
	if rd.Err() == nil && (nGroups == 0 || p.cfg.Imbalance == 0 || p.cfg.TopicK == 0 ||
		p.cfg.SecondOrderPairs == 0 || p.cfg.StableSeedStride == 0) {
		return nil, fmt.Errorf("%w: config has a field Save never leaves at zero", ErrBadArtifact)
	}

	p.featNames = rd.Strs()
	wantSum := rd.Uvarint()
	if err := rd.Err(); err != nil {
		return nil, badArtifact(err)
	}
	if got := schemaChecksum(p.featNames); uint64(got) != wantSum {
		return nil, fmt.Errorf("%w: feature-name checksum %08x, bundle says %08x", ErrBadArtifact, got, wantSum)
	}

	if err := decodeOptional(rd, func() error {
		tf, err := features.DecodeTopicFeaturizer(rd)
		p.complaints = tf
		return err
	}); err != nil {
		return nil, badArtifact(err)
	}
	if err := decodeOptional(rd, func() error {
		tf, err := features.DecodeTopicFeaturizer(rd)
		p.search = tf
		return err
	}); err != nil {
		return nil, badArtifact(err)
	}
	if err := decodeOptional(rd, func() error {
		so, err := features.DecodeSecondOrder(rd)
		p.so = so
		return err
	}); err != nil {
		return nil, badArtifact(err)
	}

	tag, body := rd.Str(), rd.Bytes()
	if err := rd.Err(); err != nil {
		return nil, badArtifact(err)
	}
	if tag != tagRF {
		return nil, fmt.Errorf("%w: unknown classifier tag %q", ErrBadArtifact, tag)
	}
	f, err := tree.ReadForest(bytes.NewReader(body))
	if err != nil {
		return nil, badArtifact(err)
	}
	// ReadForest bounds split features by the forest's own names; the rows
	// it will score are the schema's.
	if n := len(f.FeatureNames()); n != len(p.featNames) {
		return nil, fmt.Errorf("%w: forest has %d features, schema %d", ErrBadArtifact, n, len(p.featNames))
	}
	p.clf = &RFClassifier{forest: f}

	if err := decodeOptional(rd, func() error {
		v, err := decodeVectors(rd, len(p.featNames))
		p.vectors = v
		return err
	}); err != nil {
		return nil, badArtifact(err)
	}
	if err := rd.Close(); err != nil {
		return nil, badArtifact(err)
	}
	return p, nil
}

// LoadFile reads a pipeline bundle from disk.
func LoadFile(path string) (*Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Config returns the pipeline's effective configuration (defaults applied).
func (p *Pipeline) Config() Config { return p.cfg }

// SetWorkers sets the pipeline's frame-build/scoring parallelism — the
// artifact does not carry a worker count (a loaded pipeline defaults to all
// cores), so the serving host picks its own. It caps the classifier's
// batch scoring too, so one setting bounds every goroutine the pipeline
// starts. Results are bit-identical for any value. Call it before the
// pipeline scores, not while it does.
func (p *Pipeline) SetWorkers(n int) {
	p.cfg.Workers = n
	switch c := p.clf.(type) {
	case *RFClassifier:
		c.forest.SetWorkers(n)
	case *GBDTClassifier:
		c.model.SetWorkers(n)
	}
}

// SchemaChecksum returns the CRC32 of the training feature names, the quick
// schema-identity check stored in the artifact.
func (p *Pipeline) SchemaChecksum() uint32 { return schemaChecksum(p.featNames) }

// schemaChecksum hashes a feature-name list order-sensitively (names are
// NUL-separated so boundaries cannot alias).
func schemaChecksum(names []string) uint32 {
	h := crc32.NewIEEE()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return h.Sum32()
}

func encodeOptional(cw *codec.Writer, present bool, enc func()) {
	if !present {
		cw.Uvarint(0)
		return
	}
	cw.Uvarint(1)
	enc()
}

func decodeOptional(rd *codec.Reader, dec func() error) error {
	switch rd.Uvarint() {
	case 0:
		return rd.Err()
	case 1:
		return dec()
	default:
		rd.Fail("bad presence flag")
		return rd.Err()
	}
}

// badArtifact maps lower-layer corruption sentinels onto the artifact's.
func badArtifact(err error) error {
	if errors.Is(err, codec.ErrCorrupt) || errors.Is(err, tree.ErrBadModel) {
		return fmt.Errorf("%w: %v", ErrBadArtifact, err)
	}
	return err
}
