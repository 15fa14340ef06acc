package features

import (
	"errors"
	"fmt"
	"math/rand"

	"telcochurn/internal/dataset"
	"telcochurn/internal/fm"
)

// SecondOrderSelector implements Section 4.1.4: a factorization machine is
// trained on the labeled training frame; the pairwise weights ⟨v_i, v_j⟩ of
// Eq. (3) rank all feature pairs, and the top NumPairs become the F9
// second-order features x_i·x_j of the wide table.
//
// The selector standardizes source columns internally (products of raw
// scales would be dominated by unit choices) and applies the same transform
// at Apply time.
type SecondOrderSelector struct {
	sourceNames []string
	means, stds []float64
	pairs       []fm.Pair
}

// SecondOrderConfig configures selection.
type SecondOrderConfig struct {
	// NumPairs is the number of second-order features to keep (paper: 20).
	NumPairs int
	// FM configures the underlying factorization machine.
	FM fm.Config
}

func (c SecondOrderConfig) withDefaults() SecondOrderConfig {
	if c.NumPairs == 0 {
		c.NumPairs = 20
	}
	return c
}

// FitSecondOrder trains the selector on the labeled training frame (labels
// map customer -> 0/1 churn). Only customers with labels participate.
func FitSecondOrder(f *Frame, labels map[int64]int, cfg SecondOrderConfig) (*SecondOrderSelector, error) {
	cfg = cfg.withDefaults()
	d := dataset.New(f.Names())
	for i, id := range f.ids {
		y, ok := labels[id]
		if !ok || y < 0 {
			continue
		}
		row := append([]float64(nil), f.x[i]...)
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
	}
	if d.NumInstances() == 0 {
		return nil, errors.New("features: no labeled rows for second-order selection")
	}
	// Downsample majority class for FM training speed and balance.
	rng := rand.New(rand.NewSource(cfg.FM.Seed + 17))
	var pos, neg []int
	for i, y := range d.Y {
		if y == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if len(pos) == 0 || len(neg) == 0 {
		return nil, errors.New("features: second-order selection needs both classes")
	}
	keepNeg := len(pos) * 3
	if keepNeg > len(neg) {
		keepNeg = len(neg)
	}
	perm := rng.Perm(len(neg))
	idx := append([]int(nil), pos...)
	for i := 0; i < keepNeg; i++ {
		idx = append(idx, neg[perm[i]])
	}
	d = d.Subset(idx).Clone()

	means, stds := d.Standardize()
	fmCfg := cfg.FM
	if fmCfg.LearningRate == 0 {
		// Dense standardized inputs need a gentler step than LIBFM's sparse
		// default to keep the pairwise term stable.
		fmCfg.LearningRate = 0.02
	}
	if fmCfg.Epochs == 0 {
		fmCfg.Epochs = 30
	}
	model, err := fm.Fit(d, fmCfg)
	if err != nil {
		return nil, err
	}
	return &SecondOrderSelector{
		sourceNames: f.Names(),
		means:       means,
		stds:        stds,
		pairs:       model.TopPairs(cfg.NumPairs),
	}, nil
}

// PairName returns the wide-table column name of the k-th selected pair,
// e.g. "innet_dura_x_total_charge".
func (s *SecondOrderSelector) PairName(k int) string {
	p := s.pairs[k]
	return fmt.Sprintf("%s_x_%s", s.sourceNames[p.I], s.sourceNames[p.J])
}

// Apply adds the F9 columns x_i·x_j (standardized sources) to a frame whose
// first columns match the source names the selector was fit on.
func (s *SecondOrderSelector) Apply(f *Frame) error {
	for i, name := range s.sourceNames {
		if i >= len(f.names) || f.names[i] != name {
			return fmt.Errorf("features: second-order source column %d mismatch (%q)", i, name)
		}
	}
	for k := range s.pairs {
		vals := make([]float64, len(f.ids))
		for i, row := range f.x {
			vals[i] = s.pairValue(k, row)
		}
		if err := f.AddDense(F9SecondOrder, s.PairName(k), vals); err != nil {
			return err
		}
	}
	return nil
}

// ApplyRow computes the F9 values for one assembled feature row whose
// leading columns match the fitted source names — the incremental
// maintenance path's per-customer counterpart of Apply. Both compute each
// value with pairValue, so a row refreshed through it is bit-identical to
// the same row in a full Apply.
func (s *SecondOrderSelector) ApplyRow(row []float64) ([]float64, error) {
	if len(row) < len(s.sourceNames) {
		return nil, fmt.Errorf("features: second-order row has %d columns, selector needs %d sources", len(row), len(s.sourceNames))
	}
	vals := make([]float64, len(s.pairs))
	for k := range s.pairs {
		vals[k] = s.pairValue(k, row)
	}
	return vals, nil
}

// pairValue is the k-th F9 value of one row: both sources standardized,
// clipped, then multiplied.
func (s *SecondOrderSelector) pairValue(k int, row []float64) float64 {
	p := s.pairs[k]
	xi := clipZ((row[p.I] - s.means[p.I]) / s.stds[p.I])
	xj := clipZ((row[p.J] - s.means[p.J]) / s.stds[p.J])
	return xi * xj
}

// NumPairs returns how many F9 columns the selector emits.
func (s *SecondOrderSelector) NumPairs() int { return len(s.pairs) }

// clipZ bounds a standardized value so a single outlier cannot dominate a
// product feature (products of heavy tails otherwise hand the forest splits
// that fit one customer).
func clipZ(z float64) float64 {
	const bound = 4
	if z > bound {
		return bound
	}
	if z < -bound {
		return -bound
	}
	return z
}
