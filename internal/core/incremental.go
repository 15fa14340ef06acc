package core

import (
	"fmt"

	"telcochurn/internal/features"
	"telcochurn/internal/table"
)

// Incremental maintains fresh serving rows between batch rebuilds: it owns
// a features.Maintainer over the serving window's raw tables and knows how
// to reassemble one customer's full wide-table row in the fitted serving
// schema after an event — per-customer groups (F1–F3, F7, F8) recomputed
// from the maintained tables, graph columns (F4–F6) carried over from the
// snapshot row (they are cross-customer and wait for the next refresh),
// and F9 re-derived from the updated row through the fitted second-order
// selector. Every recomputed value is Float64bits-identical to what a
// from-scratch rebuild over the merged data would produce for the same
// columns; see features/incremental.go for the argument and the property
// test.
type Incremental struct {
	pipe  *Pipeline
	maint *features.Maintainer
	// perCust is the subset of the configured groups that refresh per
	// customer, in canonical order.
	perCust []features.Group
	// colOf maps each per-customer column name to its serving-schema index.
	colOf map[string]int
	// f9Start is the index of the first F9 column, -1 when F9 is off.
	f9Start int
}

// NewIncremental loads the window's raw tables from src (cloned, so
// in-memory sources are never mutated) and wires a maintainer against the
// fitted pipeline's serving schema. The window must be one whole month and
// the pipeline must be fitted (its feature names are the schema refreshed
// rows are assembled in).
func NewIncremental(pipe *Pipeline, src Source, win features.Window) (*Incremental, error) {
	names := pipe.FeatureNames()
	if len(names) == 0 {
		return nil, fmt.Errorf("core: incremental maintenance needs a fitted pipeline")
	}
	tbl, err := src.Tables(win)
	if err != nil {
		return nil, err
	}
	if tbl, err = features.CloneTables(tbl); err != nil {
		return nil, err
	}
	maint, err := features.NewMaintainer(tbl, win, src.DaysPerMonth())
	if err != nil {
		return nil, err
	}
	inc := &Incremental{pipe: pipe, maint: maint, colOf: map[string]int{}, f9Start: -1}
	want := pipe.cfg.groupSet()
	inc.perCust = (want & (features.BaseGroups | features.TopicGroups)).Groups()
	idxOf := make(map[string]int, len(names))
	for i, n := range names {
		idxOf[n] = i
	}
	// Probe one customer to resolve (and validate) the recompute columns'
	// schema positions up front, so wiring fails fast on drift.
	probe, err := maint.CustomerFrame(maint.AnyCustomer(), inc.perCust, pipe.complaints, pipe.search)
	if err != nil {
		return nil, err
	}
	for _, n := range probe.Names() {
		i, ok := idxOf[n]
		if !ok {
			return nil, fmt.Errorf("core: recomputed column %q not in serving schema", n)
		}
		inc.colOf[n] = i
	}
	if want.Has(features.F9SecondOrder) {
		if pipe.so == nil {
			return nil, fmt.Errorf("core: F9 configured but no fitted second-order selector")
		}
		inc.f9Start = len(names) - pipe.so.NumPairs()
		if inc.f9Start < 0 {
			return nil, fmt.Errorf("core: serving schema shorter than F9 block")
		}
	}
	return inc, nil
}

// Maintainer exposes the underlying feature maintainer.
func (inc *Incremental) Maintainer() *features.Maintainer { return inc.maint }

// Ingest folds one table's event rows into the maintained state, returning
// the affected universe customers and the number of rows applied.
func (inc *Incremental) Ingest(name string, events *table.Table) ([]int64, int, error) {
	return inc.maint.Apply(name, events)
}

// Refresh reassembles one customer's serving row after events: base is the
// customer's current snapshot row (len = serving schema), whose graph
// columns are kept; every per-customer column is recomputed from the
// maintained tables and F9 is re-derived from the result. base is not
// mutated.
func (inc *Incremental) Refresh(id int64, base []float64) ([]float64, error) {
	names := inc.pipe.FeatureNames()
	if len(base) != len(names) {
		return nil, fmt.Errorf("core: refresh base row has %d columns, schema has %d", len(base), len(names))
	}
	cf, err := inc.maint.CustomerFrame(id, inc.perCust, inc.pipe.complaints, inc.pipe.search)
	if err != nil {
		return nil, err
	}
	row := append([]float64(nil), base...)
	vals, ok := cf.Row(id)
	if !ok {
		return nil, fmt.Errorf("core: imsi %d missing from its own recomputed frame", id)
	}
	for j, n := range cf.Names() {
		i, ok := inc.colOf[n]
		if !ok {
			return nil, fmt.Errorf("core: recomputed column %q not in serving schema", n)
		}
		row[i] = vals[j]
	}
	if inc.f9Start >= 0 {
		f9, err := inc.pipe.so.ApplyRow(row)
		if err != nil {
			return nil, err
		}
		copy(row[inc.f9Start:], f9)
	}
	return row, nil
}
