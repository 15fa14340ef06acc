// Package dataset provides the dense labeled dataset representation shared
// by every learning algorithm in this repository (random forest, GBDT,
// logistic regression, factorization machines) and by the evaluation and
// sampling layers.
//
// A Dataset is a row-major dense matrix of float64 feature values plus a
// parallel label vector and optional per-instance weights. The churn task is
// binary (label 0 = non-churner, 1 = churner); the retention task is
// multi-class (label 0..C-1 identifying the accepted offer).
package dataset

import (
	"errors"
	"fmt"
	"math"
)

// Dataset is a dense labeled sample matrix. Rows are instances (customers in
// a given month), columns are features from the wide table.
type Dataset struct {
	// FeatureNames holds one name per column, aligned with X's columns.
	FeatureNames []string
	// X is the row-major feature matrix: X[i] is instance i's feature vector.
	X [][]float64
	// Y is the label vector: Y[i] is the class of instance i.
	Y []int
	// W is the optional per-instance weight vector. Nil means uniform 1.0.
	W []float64
}

// New returns an empty dataset with the given feature names.
func New(featureNames []string) *Dataset {
	return &Dataset{FeatureNames: featureNames}
}

// NumInstances returns the number of rows.
func (d *Dataset) NumInstances() int { return len(d.X) }

// NumFeatures returns the number of columns.
func (d *Dataset) NumFeatures() int { return len(d.FeatureNames) }

// Add appends one labeled instance. The feature vector length must match the
// number of feature names.
func (d *Dataset) Add(x []float64, y int) error {
	if len(x) != len(d.FeatureNames) {
		return fmt.Errorf("dataset: instance has %d features, want %d", len(x), len(d.FeatureNames))
	}
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
	return nil
}

// Weight returns instance i's weight (1.0 when no weights are set).
func (d *Dataset) Weight(i int) float64 {
	if d.W == nil {
		return 1.0
	}
	return d.W[i]
}

// Validate checks internal consistency: matching lengths and finite shape.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("dataset: %d instances but %d labels", len(d.X), len(d.Y))
	}
	if d.W != nil && len(d.W) != len(d.X) {
		return fmt.Errorf("dataset: %d instances but %d weights", len(d.X), len(d.W))
	}
	for i, row := range d.X {
		if len(row) != len(d.FeatureNames) {
			return fmt.Errorf("dataset: row %d has %d features, want %d", i, len(row), len(d.FeatureNames))
		}
	}
	return nil
}

// NumClasses returns 1 + the maximum label value, i.e. the number of classes
// assuming labels are 0-based and contiguous.
func (d *Dataset) NumClasses() int {
	maxY := -1
	for _, y := range d.Y {
		if y > maxY {
			maxY = y
		}
	}
	return maxY + 1
}

// Subset returns a new dataset containing the rows at the given indices. The
// feature-name slice is shared; rows are shared (not copied) since training
// code never mutates feature vectors.
func (d *Dataset) Subset(indices []int) *Dataset {
	sub := &Dataset{
		FeatureNames: d.FeatureNames,
		X:            make([][]float64, len(indices)),
		Y:            make([]int, len(indices)),
	}
	if d.W != nil {
		sub.W = make([]float64, len(indices))
	}
	for j, i := range indices {
		sub.X[j] = d.X[i]
		sub.Y[j] = d.Y[i]
		if d.W != nil {
			sub.W[j] = d.W[i]
		}
	}
	return sub
}

// Clone returns a deep copy of the dataset (rows copied).
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{
		FeatureNames: append([]string(nil), d.FeatureNames...),
		X:            make([][]float64, len(d.X)),
		Y:            append([]int(nil), d.Y...),
	}
	for i, row := range d.X {
		c.X[i] = append([]float64(nil), row...)
	}
	if d.W != nil {
		c.W = append([]float64(nil), d.W...)
	}
	return c
}

// Append concatenates other's rows onto d. Feature names must match exactly.
func (d *Dataset) Append(other *Dataset) error {
	if len(d.FeatureNames) != len(other.FeatureNames) {
		return errors.New("dataset: append with mismatched feature count")
	}
	for i, name := range d.FeatureNames {
		if other.FeatureNames[i] != name {
			return fmt.Errorf("dataset: append feature %d name mismatch: %q vs %q", i, name, other.FeatureNames[i])
		}
	}
	d.X = append(d.X, other.X...)
	d.Y = append(d.Y, other.Y...)
	switch {
	case d.W == nil && other.W == nil:
	case d.W != nil && other.W != nil:
		d.W = append(d.W, other.W...)
	default:
		return errors.New("dataset: append with mismatched weight presence")
	}
	return nil
}

// Column returns a copy of feature column j.
func (d *Dataset) Column(j int) []float64 {
	col := make([]float64, len(d.X))
	for i, row := range d.X {
		col[i] = row[j]
	}
	return col
}

// Standardize scales every column to zero mean and unit variance in place,
// returning the per-column means and standard deviations so the same
// transform can be applied to test data via ApplyStandardize. Columns with
// zero variance are left centered only.
func (d *Dataset) Standardize() (means, stds []float64) {
	nf := d.NumFeatures()
	n := float64(d.NumInstances())
	means = make([]float64, nf)
	stds = make([]float64, nf)
	if n == 0 {
		for j := range stds {
			stds[j] = 1
		}
		return means, stds
	}
	for _, row := range d.X {
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= n
	}
	for _, row := range d.X {
		for j, v := range row {
			dv := v - means[j]
			stds[j] += float64(dv * dv)
		}
	}
	for j := range stds {
		stds[j] = math.Sqrt(stds[j] / n)
		if stds[j] == 0 {
			stds[j] = 1
		}
	}
	d.ApplyStandardize(means, stds)
	return means, stds
}

// ApplyStandardize applies a previously computed standardization in place.
func (d *Dataset) ApplyStandardize(means, stds []float64) {
	for _, row := range d.X {
		for j := range row {
			row[j] = (row[j] - means[j]) / stds[j]
		}
	}
}
