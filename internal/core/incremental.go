package core

import (
	"fmt"
	"slices"

	"telcochurn/internal/features"
	"telcochurn/internal/table"
)

// Incremental holds one serving month between batch rebuilds: a
// features.Maintainer over the month's raw tables with every folded event
// appended, in the row layout store.EventLog.MergeInto commits, and the
// maintainer's live state over them: every customer's per-customer columns
// and the F4–F6 graph fold. It answers two questions. Refresh reassembles
// one customer's full wide-table row in the fitted serving schema after an
// event — per-customer groups (F1–F3, F7, F8) re-folded, graph columns
// (F4–F6) carried over from the snapshot row (they are cross-customer and
// wait for the next refresh), and F9 re-derived from the updated row
// through the fitted second-order selector. ReadSeeds, Capture and
// Captured.Frame build the whole serving frame from the live state,
// reading no raw row and re-folding no customer. Every value either path
// produces is Float64bits-identical to a from-scratch rebuild over the
// merged data (BuildFrameDegraded's, with a table the load could not
// read); see features/incremental.go and features/live.go for the
// argument, and FuzzPipelineIdentity for the check.
type Incremental struct {
	maint *features.Maintainer
	pipe  *Pipeline
	// missing names the window tables the load could not read, in
	// canonical order. The maintainer holds an empty stand-in for each,
	// takes none of its events and imputes its columns, as a degraded
	// build does.
	missing []string
	// colOf maps each per-customer column name to its serving-schema index.
	colOf map[string]int
	// f9Start is the index of the first F9 column, -1 when F9 is off.
	f9Start int
}

// NewIncremental reads the window's nine raw tables once, through one
// reader of src and up to the pipeline's worker count of goroutines
// (features.LoadTables), and keeps them in a maintainer live for the
// fitted pipeline's serving schema. The load is lenient: a table src
// cannot produce after whatever retries it performs becomes an empty
// stand-in and is named by Missing. Only the customer snapshot is
// required (features.ErrUniverseUnavailable). The window must be one
// whole month. It fails on an unfitted pipeline and on schema drift
// between the kept columns and the serving schema. src's tables are never
// written into, so an in-memory source can be loaded directly.
func NewIncremental(pipe *Pipeline, src Source, win features.Window) (*Incremental, error) {
	names := pipe.FeatureNames()
	if len(names) == 0 {
		return nil, fmt.Errorf("core: incremental maintenance needs a fitted pipeline")
	}
	want := pipe.cfg.groupSet()
	f9Start := -1
	if want.Has(features.F9SecondOrder) {
		if pipe.so == nil {
			return nil, fmt.Errorf("core: F9 configured but no fitted second-order selector")
		}
		if f9Start = len(names) - pipe.so.NumPairs(); f9Start < 0 {
			return nil, fmt.Errorf("core: serving schema shorter than F9 block")
		}
	}
	tbl, missing, err := features.LoadTables(src.open(-1), win, src.DaysPerMonth(), false, pipe.cfg.Workers)
	if err != nil {
		return nil, err
	}
	maint, err := features.NewMaintainer(tbl, win, src.DaysPerMonth(), want, pipe.complaints, pipe.search, pipe.cfg.Workers)
	if err != nil {
		return nil, err
	}
	idxOf := make(map[string]int, len(names))
	for i, n := range names {
		idxOf[n] = i
	}
	colOf := map[string]int{}
	for _, n := range maint.KeptNames() {
		i, ok := idxOf[n]
		if !ok {
			return nil, fmt.Errorf("core: recomputed column %q not in serving schema", n)
		}
		colOf[n] = i
	}
	return &Incremental{maint: maint, pipe: pipe, missing: missing, colOf: colOf, f9Start: f9Start}, nil
}

// Missing names the window tables the load could not read, in canonical
// order.
func (inc *Incremental) Missing() []string { return inc.missing }

// Maintainer exposes the underlying feature maintainer.
func (inc *Incremental) Maintainer() *features.Maintainer { return inc.maint }

// Ingest folds one table's event rows into the maintained state, returning
// the affected universe customers and the number of rows applied. It
// refuses the rows of a table the load could not read: its columns are
// imputed, as a degraded build over the merged data imputes them.
func (inc *Incremental) Ingest(name string, events *table.Table) ([]int64, int, error) {
	if slices.Contains(inc.missing, name) {
		return nil, 0, fmt.Errorf("core: table %s was unreadable at load; its events wait for the next build", name)
	}
	return inc.maint.Apply(name, events)
}

// Refresh reassembles one customer's serving row after events: base is the
// customer's current snapshot row (len = serving schema), whose graph
// columns are kept; every per-customer column is recomputed from the
// maintained tables and F9 is re-derived from the result. base is not
// mutated. It is RefreshAll's one-id case.
func (inc *Incremental) Refresh(id int64, base []float64) ([]float64, error) {
	rows, errs := inc.RefreshAll([]int64{id}, [][]float64{base})
	return rows[0], errs[0]
}

// RefreshAll is Refresh for many customers at once: rows[i] or errs[i]
// answers ids[i] with bases[i] as its base row. Every customer's
// per-customer columns come from one Maintainer.Refold build, which also
// installs them as the customers' kept columns, and the recomputed columns
// are mapped onto the serving schema once. A customer that cannot be
// rebuilt — outside the universe, or a base row of the wrong width — fails
// alone; a build failure fails them all.
func (inc *Incremental) RefreshAll(ids []int64, bases [][]float64) (rows [][]float64, errs []error) {
	rows, errs = make([][]float64, len(ids)), make([]error, len(ids))
	fail := func(err error) ([][]float64, []error) {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return rows, errs
	}
	width := len(inc.pipe.FeatureNames())
	for i, base := range bases {
		if len(base) != width {
			errs[i] = fmt.Errorf("core: refresh base row has %d columns, schema has %d", len(base), width)
		}
	}
	cf, err := inc.maint.Refold(ids)
	if err != nil {
		return fail(err)
	}
	names := cf.Names()
	cols := make([]int, len(names))
	for j, n := range names {
		var ok bool
		if cols[j], ok = inc.colOf[n]; !ok {
			return fail(fmt.Errorf("core: recomputed column %q not in serving schema", n))
		}
	}
	for i, id := range ids {
		if errs[i] != nil {
			continue
		}
		vals, ok := cf.Row(id)
		if !ok {
			errs[i] = fmt.Errorf("%w: imsi %d", features.ErrNotInUniverse, id)
			continue
		}
		row := slices.Clone(bases[i])
		for j, c := range cols {
			row[c] = vals[j]
		}
		if inc.f9Start >= 0 {
			f9, err := inc.pipe.so.ApplyRow(row)
			if err != nil {
				errs[i] = err
				continue
			}
			copy(row[inc.f9Start:], f9)
		}
		rows[i] = row
	}
	return rows, errs
}

// GraphSeeds is what a serving-frame build seeds label propagation from:
// the window's previous churners and stable sample, read from the truth of
// its snapshot month, and the groups a truth read that failed degrades.
type GraphSeeds struct {
	in  features.GraphFeatureInput
	deg features.Degradation
}

// ReadSeeds reads the label-propagation seeds from src's truth of the
// window's snapshot month, as every build does; with no graph group
// configured it reads nothing. With partial a truth read that fails is no
// error: the seeds are empty and flag the graph groups, as
// BuildFrameDegraded does. It reads no raw table and needs no lock.
func (inc *Incremental) ReadSeeds(src Source, partial bool) (GraphSeeds, error) {
	in, deg, err := inc.pipe.graphSeeds(src, inc.maint.Window(), partial)
	return GraphSeeds{in: in, deg: deg}, err
}

// Captured is the serving state one Capture took.
type Captured struct {
	pipe  *Pipeline
	deg   features.Degradation
	state *features.Captured
}

// Capture takes what a serving-frame build needs from the live state
// (Maintainer.Capture): the kept per-customer columns, re-folding any
// customer ingested but not yet refreshed, and the graph fold reduced to
// the universe and the seeds' previous churners. Its mask is the seeds'
// and the groups of the tables the load could not read. Callers serialize
// it with Ingest and RefreshAll — churnd holds its ingest lock — so a
// capture sees every post whole; building from it needs no lock.
func (inc *Incremental) Capture(seeds GraphSeeds) (*Captured, error) {
	state, err := inc.maint.Capture(seeds.in, inc.pipe.cfg.Workers)
	if err != nil {
		return nil, err
	}
	deg := seeds.deg | features.DegradationOf(inc.missing, inc.pipe.cfg.groupSet())
	return &Captured{pipe: inc.pipe, deg: deg, state: state}, nil
}

// Frame builds the serving frame from the capture: the graph groups
// finalized and scored (PageRank, label propagation) over the reduced
// fold, laid with the kept columns into one frame, and F9 applied last. It
// reads no raw table. The frame and its mask are Float64bits-equal to
// BuildFrameDegraded's over the maintained tables merged into the source
// the seeds were read from (BuildFrame's, with nothing missing). Later
// Ingest and RefreshAll calls never reach a capture.
func (c *Captured) Frame() (*features.Frame, features.Degradation, error) {
	frame := c.state.Frame(c.pipe.cfg.Workers)
	deg, err := c.pipe.applySecondOrder(frame, c.deg)
	if err != nil {
		return nil, 0, err
	}
	return frame, deg, nil
}
