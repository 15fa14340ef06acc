package core

import (
	"fmt"
	"slices"

	"telcochurn/internal/features"
	"telcochurn/internal/table"
)

// Incremental holds one serving month between batch rebuilds: a
// features.Maintainer over the month's raw tables with every folded event
// appended, in the row layout store.EventLog.MergeInto commits, and — once
// wired — the maintainer's live state over them (Maintainer.Keep): every
// customer's per-customer columns and the F4–F6 graph fold. It answers
// three questions. Refresh reassembles one customer's full wide-table row
// in the fitted serving schema after an event — per-customer groups (F1–F3,
// F7, F8) re-folded, graph columns (F4–F6) carried over from the snapshot
// row (they are cross-customer and wait for the next refresh), and F9
// re-derived from the updated row through the fitted second-order
// selector. ReadSeeds, Capture and Captured.Frame build the whole serving
// frame from the live state, reading no raw row and re-folding no
// customer. View
// presents the tables as a Source, for a build that cannot wire (a
// degraded window). Every value any path produces is Float64bits-identical
// to a from-scratch rebuild over the merged data; see features/incremental.go
// and features/live.go for the argument, and FuzzPipelineIdentity for the
// check.
type Incremental struct {
	maint *features.Maintainer
	// missing names the window tables the source could not read, in
	// canonical order. The maintainer holds an empty stand-in for each;
	// View leaves them to the base source, whose error they carry.
	missing []string

	// Set by Wire.
	pipe *Pipeline
	// colOf maps each per-customer column name to its serving-schema index.
	colOf map[string]int
	// f9Start is the index of the first F9 column, -1 when F9 is off.
	f9Start int
}

// NewIncremental loads the window's raw tables from src and wires them
// against the fitted pipeline's serving schema (LoadIncremental, then
// Wire): every table must be readable.
func NewIncremental(pipe *Pipeline, src Source, win features.Window) (*Incremental, error) {
	inc, err := LoadIncremental(src, win, pipe.cfg.Workers)
	if err != nil {
		return nil, err
	}
	if err := inc.Wire(pipe); err != nil {
		return nil, err
	}
	return inc, nil
}

// LoadIncremental reads the window's nine raw tables once, through one
// reader of src and up to workers goroutines (features.LoadTables), and
// indexes them in a maintainer. The load is lenient: a table src cannot
// produce after whatever retries it performs becomes an empty stand-in and
// is named missing. Only the customer snapshot is required
// (features.ErrUniverseUnavailable). The window must be one whole month.
// src's tables are never written into, so an in-memory source can be
// loaded directly.
func LoadIncremental(src Source, win features.Window, workers int) (*Incremental, error) {
	tbl, missing, err := features.LoadTables(src.open(-1), win, src.DaysPerMonth(), false, workers)
	if err != nil {
		return nil, err
	}
	maint, err := features.NewMaintainer(tbl, win, src.DaysPerMonth())
	if err != nil {
		return nil, err
	}
	return &Incremental{maint: maint, missing: missing}, nil
}

// Wire resolves the pipeline's serving schema for Refresh and starts the
// maintainer's live state for it (Maintainer.Keep) over the tables as they
// stand. It fails on an unfitted pipeline, on schema drift between the
// recomputed columns and the serving schema, and on a degraded window: a
// table the load could not read maintains nothing, so such a window takes
// no events.
func (inc *Incremental) Wire(pipe *Pipeline) error {
	names := pipe.FeatureNames()
	if len(names) == 0 {
		return fmt.Errorf("core: incremental maintenance needs a fitted pipeline")
	}
	if len(inc.missing) > 0 {
		return fmt.Errorf("core: %d of the window's tables are unavailable; a degraded window takes no events", len(inc.missing))
	}
	want := pipe.cfg.groupSet()
	perCust := (want & (features.BaseGroups | features.TopicGroups)).Groups()
	idxOf := make(map[string]int, len(names))
	for i, n := range names {
		idxOf[n] = i
	}
	// Probe one customer to resolve (and validate) the recompute columns'
	// schema positions up front, so wiring fails fast on drift.
	probe, err := inc.maint.CustomerFrame(inc.maint.AnyCustomer(), perCust, pipe.complaints, pipe.search)
	if err != nil {
		return err
	}
	colOf := map[string]int{}
	for _, n := range probe.Names() {
		i, ok := idxOf[n]
		if !ok {
			return fmt.Errorf("core: recomputed column %q not in serving schema", n)
		}
		colOf[n] = i
	}
	f9Start := -1
	if want.Has(features.F9SecondOrder) {
		if pipe.so == nil {
			return fmt.Errorf("core: F9 configured but no fitted second-order selector")
		}
		if f9Start = len(names) - pipe.so.NumPairs(); f9Start < 0 {
			return fmt.Errorf("core: serving schema shorter than F9 block")
		}
	}
	if err := inc.maint.Keep(want, pipe.complaints, pipe.search, pipe.cfg.Workers); err != nil {
		return err
	}
	inc.pipe, inc.colOf, inc.f9Start = pipe, colOf, f9Start
	return nil
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
// mutated. The Incremental must be wired. It is RefreshAll's one-id case.
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
	if inc.pipe == nil {
		return fail(fmt.Errorf("core: incremental refresh before Wire"))
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
// BuildFrameDegraded does. It reads no raw table and needs no lock. The
// Incremental must be wired.
func (inc *Incremental) ReadSeeds(src Source, partial bool) (GraphSeeds, error) {
	if inc.pipe == nil {
		return GraphSeeds{}, fmt.Errorf("core: incremental seeds before Wire")
	}
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
// the universe and the seeds' previous churners. Callers serialize it with
// Ingest and RefreshAll — churnd holds its ingest lock — so a capture sees
// every post whole; building from it needs no lock. The Incremental must
// be wired.
func (inc *Incremental) Capture(seeds GraphSeeds) (*Captured, error) {
	if inc.pipe == nil {
		return nil, fmt.Errorf("core: incremental capture before Wire")
	}
	state, err := inc.maint.Capture(seeds.in, inc.pipe.cfg.Workers)
	if err != nil {
		return nil, err
	}
	return &Captured{pipe: inc.pipe, deg: seeds.deg, state: state}, nil
}

// Frame builds the serving frame from the capture: the graph groups
// finalized and scored (PageRank, label propagation) over the reduced
// fold, laid with the kept columns into one frame, and F9 applied last. It
// reads no raw table. The frame is Float64bits-equal to BuildFrame over
// the maintained tables merged into the source the seeds were read from,
// or, over partial seeds, to BuildFrameDegraded, and so is its mask. Later
// Ingest and RefreshAll calls never reach a capture.
func (c *Captured) Frame() (*features.Frame, features.Degradation, error) {
	frame := c.state.Frame(c.pipe.cfg.Workers)
	deg, err := c.pipe.applySecondOrder(frame, c.deg)
	if err != nil {
		return nil, 0, err
	}
	return frame, deg, nil
}

// View returns base with the served month's nine tables answered from a
// snapshot of the maintained tables, taken now: later Ingest calls never
// reach it, and it copies no row. A shard reader (shard >= 0) takes only
// the rows whose imsi hashes to its shard (table.ShardOf, the split the
// sharded writer makes after a merge). Every other read — truth, other
// months, a table the load could not read (the maintainer holds none of
// its rows) — goes to base, so over a retrying source only those retry,
// and a table still down answers with base's own error.
func (inc *Incremental) View(base Source) Source {
	v := viewReader{
		month:   inc.maint.Window().LastMonth(inc.maint.DaysPerMonth()),
		tables:  inc.maint.Snapshot(),
		missing: inc.missing,
	}
	return base.With(func(shard, shards int, rd features.TableReader) features.TableReader {
		r := v
		r.rd, r.shard, r.shards = rd, shard, shards
		return r
	})
}

// viewReader answers reads that cover the served month from the snapshot,
// month by month, so the served month's rows sit where a merged partition
// would put them.
type viewReader struct {
	rd            features.TableReader
	shard, shards int
	month         int
	tables        map[string]*table.Table
	missing       []string
}

func (r viewReader) ReadMonths(name string, months []int) (*table.Table, error) {
	snap := r.tables[name]
	if snap == nil || !slices.Contains(months, r.month) || slices.Contains(r.missing, name) {
		return r.rd.ReadMonths(name, months)
	}
	if r.shard >= 0 {
		keys := snap.MustCol("imsi").Ints
		snap = snap.Filter(func(i int) bool { return table.ShardOf(keys[i], r.shards) == r.shard })
	}
	parts := make([]*table.Table, len(months))
	for i, m := range months {
		parts[i] = snap
		if m != r.month {
			var err error
			if parts[i], err = r.rd.ReadMonths(name, []int{m}); err != nil {
				return nil, err
			}
		}
	}
	return table.Concat(parts)
}
