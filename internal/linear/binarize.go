package linear

import (
	"fmt"
	"sort"

	"telcochurn/internal/dataset"
)

// Binarizer discretizes continuous features into quantile-bucket indicator
// features. The paper preprocesses continuous values into "discrete binary
// features" for LIBFM and LIBLINEAR because "linear models are more suitable
// for sparse binary features" (Section 5.8).
type Binarizer struct {
	// cuts[j] holds the ascending bucket boundaries for source feature j.
	cuts  [][]float64
	names []string
}

// FitBinarizer learns per-feature quantile boundaries producing up to
// buckets indicator features per source feature (duplicate boundaries
// collapse, so constant features produce a single always-on indicator).
func FitBinarizer(d *dataset.Dataset, buckets int) *Binarizer {
	if buckets < 2 {
		buckets = 2
	}
	nf := d.NumFeatures()
	b := &Binarizer{cuts: make([][]float64, nf)}
	for j := 0; j < nf; j++ {
		col := d.Column(j)
		sort.Float64s(col)
		var cuts []float64
		for q := 1; q < buckets; q++ {
			v := col[len(col)*q/buckets]
			if len(cuts) == 0 || v > cuts[len(cuts)-1] {
				cuts = append(cuts, v)
			}
		}
		b.cuts[j] = cuts
	}
	for j := 0; j < nf; j++ {
		for k := 0; k <= len(b.cuts[j]); k++ {
			b.names = append(b.names, fmt.Sprintf("%s_q%d", d.FeatureNames[j], k))
		}
	}
	return b
}

// NumOutputs returns the binarized feature count.
func (b *Binarizer) NumOutputs() int { return len(b.names) }

// TransformRow maps one source row to its indicator representation.
func (b *Binarizer) TransformRow(x []float64) []float64 {
	out := make([]float64, 0, b.NumOutputs())
	for j, v := range x {
		// SearchFloat64s returns the first i with cuts[i] >= v, so values
		// equal to a boundary land in the lower bucket.
		bucket := sort.SearchFloat64s(b.cuts[j], v)
		k := len(b.cuts[j]) + 1
		for q := 0; q < k; q++ {
			if q == bucket {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
	}
	return out
}

// Transform maps a whole dataset, preserving labels and weights.
func (b *Binarizer) Transform(d *dataset.Dataset) *dataset.Dataset {
	out := &dataset.Dataset{
		FeatureNames: b.names,
		X:            make([][]float64, d.NumInstances()),
		Y:            append([]int(nil), d.Y...),
	}
	if d.W != nil {
		out.W = append([]float64(nil), d.W...)
	}
	for i, row := range d.X {
		out.X[i] = b.TransformRow(row)
	}
	return out
}
