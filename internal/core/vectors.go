package core

// Precomputed per-customer feature vectors. The paper's deployment scores
// the full prepaid base from a feature snapshot built once per cycle — so
// the serving hot path should not rebuild frames per request. Precompute
// flattens the wide table into one contiguous row-major []float64 plus a
// sorted customer index; the matrix persists inside the TCPA artifact as
// its optional last section, so a scorer can serve the snapshot's month
// with no warehouse at all. ServeMonth is the one rule every scorer picks
// its month and base by: the warehouse whenever it opens, the snapshot
// only without one or when the warehouse build fails.

import (
	"errors"
	"fmt"

	"telcochurn/internal/codec"
	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
)

// ErrNoVectors is returned by PredictVectors when the pipeline carries no
// precomputed feature matrix.
var ErrNoVectors = errors.New("core: pipeline has no precomputed feature vectors")

// FeatureVectors is an immutable row-major feature matrix keyed by customer
// id. Rows are the exact rows of the frame it was flattened from (a strict
// BuildFrame at precompute time, for an artifact's snapshot), so scoring
// them is bit-identical to the frame path.
type FeatureVectors struct {
	ids   []int64   // ascending, deduped (frame order)
	data  []float64 // len(ids)*width, row-major
	width int
	month int // feature (snapshot) month the vectors were built from
}

// VectorsFromFrame flattens a built frame into an immutable matrix; month
// is recorded as the snapshot's month. The frame's ids are already sorted
// ascending (features.NewFrame sorts and dedupes them).
func VectorsFromFrame(frame *features.Frame, month int) *FeatureVectors {
	ids := frame.IDs()
	v := &FeatureVectors{
		ids:   append([]int64(nil), ids...),
		width: frame.NumColumns(),
		month: month,
	}
	v.data = make([]float64, 0, len(ids)*v.width)
	for _, id := range ids {
		row, _ := frame.Row(id)
		v.data = append(v.data, row...)
	}
	return v
}

// Vector returns the feature row for id without allocating (the slice
// aliases the matrix; callers must not write through it). The bool reports
// whether the customer is in the snapshot.
func (v *FeatureVectors) Vector(id int64) ([]float64, bool) {
	// Hand-rolled binary search: sort.Search takes a closure, which would
	// allocate on the serving hot path.
	lo, hi := 0, len(v.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(v.ids) || v.ids[lo] != id {
		return nil, false
	}
	off := lo * v.width
	return v.data[off : off+v.width : off+v.width], true
}

// At returns row i in id order (aliases the matrix, like Vector).
func (v *FeatureVectors) At(i int) []float64 {
	off := i * v.width
	return v.data[off : off+v.width : off+v.width]
}

// IDs returns the snapshot's customer ids, ascending. Callers must not
// mutate the returned slice.
func (v *FeatureVectors) IDs() []int64 { return v.ids }

// NumRows returns the number of customers in the snapshot.
func (v *FeatureVectors) NumRows() int { return len(v.ids) }

// Month returns the feature month the snapshot was built from.
func (v *FeatureVectors) Month() int { return v.month }

// Precompute builds the window's wide table strictly (no degraded
// imputation — a snapshot baked from an outage would silently mis-score
// until the next train) and stores it on the pipeline as the serving
// feature matrix; Save persists it into the artifact. month is recorded so
// loaders can tell which month the snapshot describes.
func (p *Pipeline) Precompute(src Source, win features.Window, month int) error {
	if p.clf == nil {
		return errors.New("core: precompute needs a fitted pipeline")
	}
	frame, err := p.BuildFrame(src, win, false, nil)
	if err != nil {
		return err
	}
	if got := schemaChecksum(frame.Names()); got != schemaChecksum(p.featNames) {
		return fmt.Errorf("core: precompute frame schema %08x does not match training schema %08x",
			got, schemaChecksum(p.featNames))
	}
	p.vectors = VectorsFromFrame(frame, month)
	return nil
}

// Vectors returns the precomputed feature matrix, or nil if the pipeline
// has none (trained without Precompute).
func (p *Pipeline) Vectors() *FeatureVectors { return p.vectors }

// ReleaseVectors drops the precomputed feature matrix from the pipeline. A
// scorer that serves a warehouse frame calls it once the frame is built:
// it falls back to the snapshot only at boot, and would keep the matrix
// resident for nothing.
func (p *Pipeline) ReleaseVectors() { p.vectors = nil }

// PredictVectors scores every customer of the precomputed snapshot without
// touching the warehouse. Scores are bit-identical to Predict over the same
// window: the rows are the frame's own rows and the classifier sees them in
// the same (ascending id) order.
func (p *Pipeline) PredictVectors() (*Predictions, error) {
	v := p.vectors
	if v == nil {
		return nil, ErrNoVectors
	}
	rows := make([][]float64, v.NumRows())
	for i := range rows {
		rows[i] = v.At(i)
	}
	scores := p.clf.ScoreAll(rows)
	return &Predictions{IDs: append([]int64(nil), v.ids...), Scores: scores}, nil
}

// ServeMonth is the one rule every scorer picks its month and base by.
// The month is the requested one (month != 0), else the warehouse's latest
// customers partition (the one table scoring cannot impute around), else
// the month of snap (the artifact's snapshot, may be nil). The warehouse
// serves it whenever it opens (whErr nil and a customers partition
// present): build runs for the month, and a nil error ends there. The
// snapshot serves only when there is no warehouse or build fails, and only
// if it describes that month: fallback then carries the warehouse's
// failure, for the caller to report before serving snap. Otherwise err is
// that failure.
func ServeMonth(wh *store.Warehouse, whErr error, month int, snap *FeatureVectors, build func(month int) error) (m int, fallback, err error) {
	var months []int
	if whErr == nil {
		months, whErr = wh.Months(synth.TableCustomers)
		if whErr == nil && len(months) == 0 {
			whErr = fmt.Errorf("empty warehouse %s (run churnctl generate)", wh.Root())
		}
	}
	m = month
	if m == 0 {
		switch {
		case whErr == nil:
			m = months[len(months)-1]
		case snap != nil:
			m = snap.Month()
		default:
			return 0, nil, whErr
		}
	}
	if whErr == nil {
		whErr = build(m)
	}
	if whErr == nil || snap == nil || snap.Month() != m {
		return m, nil, whErr
	}
	return m, whErr, nil
}

// encode writes the matrix as one artifact section (inside the bundle CRC).
func (v *FeatureVectors) encode(cw *codec.Writer) {
	cw.Uvarint(uint64(v.month))
	cw.Uvarint(uint64(v.width))
	cw.Uvarint(uint64(len(v.ids)))
	prev := int64(0)
	for _, id := range v.ids {
		// Ids are sorted, so deltas stay small varints.
		cw.Int(id - prev)
		prev = id
	}
	cw.Floats(v.data)
}

// decodeVectors reads the matrix section written by encode.
func decodeVectors(rd *codec.Reader, wantWidth int) (*FeatureVectors, error) {
	v := &FeatureVectors{
		month: int(rd.Uvarint()),
		width: int(rd.Uvarint()),
	}
	n := rd.Len()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if v.width != wantWidth {
		return nil, fmt.Errorf("%w: vector width %d, schema has %d features",
			ErrBadArtifact, v.width, wantWidth)
	}
	v.ids = make([]int64, n)
	prev := int64(0)
	for i := range v.ids {
		prev += rd.Int()
		v.ids[i] = prev
		if i > 0 && v.ids[i] <= v.ids[i-1] {
			rd.Fail("vector ids not strictly ascending")
			break
		}
	}
	v.data = rd.Floats()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if len(v.data) != n*v.width {
		return nil, fmt.Errorf("%w: vector matrix %d floats, want %d×%d",
			ErrBadArtifact, len(v.data), n, v.width)
	}
	return v, nil
}
