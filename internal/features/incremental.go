package features

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// Incremental feature maintenance.
//
// Every per-customer feature in this package — the F1–F3 aggregates, the
// F7/F8 topic mixtures, and (at the pipeline layer) the F9 second-order
// products — is a fold over one customer's raw rows in row order: the base
// build's single pass per table adds each kept row into its customer's
// tallies in the order the rows appear (base.go), distinct counters and
// maxes are order-free, and topic fold-in consumes the customer's texts
// concatenated in row order. Row-order folds decompose over prefixes, so appending a
// customer's new event rows at the end of the serving window's tables and
// re-running the very same builders over just that customer's rows yields
// values Float64bits-identical to a from-scratch rebuild over the merged
// data (where the merge likewise appends events after each partition's
// existing rows — store.EventLog.MergeInto). That identity is what lets a
// streamed event update a served score in milliseconds while remaining
// exactly reproducible by the monthly batch path; the property test in
// incremental_test.go pins it against BuildShardedFrame.
//
// The Maintainer holds the serving window's raw tables in memory, appends
// accepted events to them, and keeps a per-table imsi → row-index posting
// list so a single customer's slice is assembled in O(customer's rows),
// not O(table). Graph groups (F4–F6) are inherently cross-customer and are
// out of scope here: they stay at their snapshot values until an explicit
// refresh rebuilds the frame (see churnd's POST /v1/refresh).

// ErrNotInUniverse reports an event or recompute for a customer absent
// from the serving window's demographic snapshot; such customers have no
// feature row to maintain.
var ErrNotInUniverse = errors.New("features: customer not in serving universe")

// StreamableTables lists the raw tables that accept streamed event rows:
// the append-only event feeds. Monthly snapshot tables (billing,
// demographics) are produced by BSS at month end and are not streamable.
var StreamableTables = []string{
	synth.TableCalls, synth.TableMessages, synth.TableRecharges,
	synth.TableComplaints, synth.TableWeb, synth.TableSearch,
	synth.TableLocations,
}

// Maintainer folds streamed raw events into one serving month's feature
// state. All methods are safe for one writer (Apply) concurrent with
// readers (CustomerFrame) via an internal mutex; the serving layer
// additionally serializes Apply against refresh swaps.
type Maintainer struct {
	mu sync.Mutex
	// tbl holds the serving month's tables by raw table name, each a
	// table.Clip of the caller's: appends reallocate rather than write into
	// memory the caller shares (an in-memory simulator month).
	tbl  map[string]*table.Table
	win  Window
	days int
	// universe is the serving month's customer snapshot (the frame's id
	// set); events for ids outside it are logged but maintain nothing.
	universe map[int64]struct{}
	// idx posts each table's rows by imsi, in row order — base rows first,
	// appended event rows after, preserving the fold order a from-scratch
	// build over merged data would see. Costs one int per raw row.
	idx     map[string]map[int64][]int
	applied int
}

// NewMaintainer indexes the serving window's nine tables; it never writes
// into them (see Maintainer.tbl). The window must be a single whole month (the serving shape): merging an event into its month
// partition appends it after that month's rows, which coincides with
// appending at the end of the loaded table only when the window holds
// exactly that one month — the bit-identity argument above needs that.
func NewMaintainer(tbl Tables, win Window, daysPerMonth int) (*Maintainer, error) {
	if months := win.Months(daysPerMonth); len(months) != 1 || win != MonthWindow(months[0], daysPerMonth) {
		return nil, fmt.Errorf("features: maintainer window %+v must be one whole month", win)
	}
	m := &Maintainer{win: win, days: daysPerMonth, idx: map[string]map[int64][]int{}}
	snap := snapshotMonth(tbl.Customers, win, daysPerMonth)
	if snap.NumRows() == 0 {
		return nil, ErrUniverseUnavailable
	}
	m.universe = make(map[int64]struct{}, snap.NumRows())
	for _, id := range snap.MustCol("imsi").Ints {
		m.universe[id] = struct{}{}
	}
	m.tbl = map[string]*table.Table{
		synth.TableCalls:      tbl.Calls.Clip(),
		synth.TableMessages:   tbl.Messages.Clip(),
		synth.TableRecharges:  tbl.Recharges.Clip(),
		synth.TableBilling:    tbl.Billing.Clip(),
		synth.TableCustomers:  tbl.Customers.Clip(),
		synth.TableComplaints: tbl.Complaints.Clip(),
		synth.TableWeb:        tbl.Web.Clip(),
		synth.TableSearch:     tbl.Search.Clip(),
		synth.TableLocations:  tbl.Locations.Clip(),
	}
	for name, t := range m.tbl {
		m.idx[name] = postByIMSI(t)
	}
	return m, nil
}

// Snapshot returns the maintained tables as they stand, by raw table name:
// the window's rows followed by every event applied so far, in the layout
// store.EventLog.MergeInto would commit. Each is a table.Clip, so it copies
// nothing and later Apply calls never reach it.
func (m *Maintainer) Snapshot() map[string]*table.Table {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*table.Table, len(m.tbl))
	for name, t := range m.tbl {
		out[name] = t.Clip()
	}
	return out
}

func postByIMSI(t *table.Table) map[int64][]int {
	post := map[int64][]int{}
	for i, id := range t.MustCol("imsi").Ints {
		post[id] = append(post[id], i)
	}
	return post
}

// Window returns the maintained serving window.
func (m *Maintainer) Window() Window { return m.win }

// DaysPerMonth returns the configured month length.
func (m *Maintainer) DaysPerMonth() int { return m.days }

// AnyCustomer returns an arbitrary universe customer — a probe id for
// schema validation at wiring time. The universe is never empty
// (NewMaintainer fails on an empty snapshot).
func (m *Maintainer) AnyCustomer() int64 {
	for id := range m.universe {
		return id
	}
	return 0
}

// Applied returns the number of event rows folded in so far.
func (m *Maintainer) Applied() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applied
}

// Apply appends one table's event rows to the maintained state and returns
// the distinct affected universe customers (ascending) plus the number of
// rows applied. Rows for months outside the serving window are skipped —
// they live in the durable log and surface after the next merge + rebuild
// — as are rows for unknown customers (appended, since a merged rebuild
// would also see them, but affecting no feature row). Only
// StreamableTables are accepted, and the rows must match the table's
// schema exactly.
func (m *Maintainer) Apply(name string, events *table.Table) ([]int64, int, error) {
	streamable := false
	for _, s := range StreamableTables {
		if s == name {
			streamable = true
			break
		}
	}
	if !streamable {
		return nil, 0, fmt.Errorf("features: table %q does not accept streamed events", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	dst := m.tbl[name]
	months := events.MustCol("month").Ints
	servingMonth := int64(m.win.LastMonth(m.days))
	ev := events.Filter(func(i int) bool { return months[i] == servingMonth })
	if ev.NumRows() == 0 {
		return nil, 0, nil
	}
	base := dst.NumRows()
	if err := dst.AppendTable(ev); err != nil {
		return nil, 0, fmt.Errorf("features: apply %s events: %w", name, err)
	}
	post := m.idx[name]
	affected := map[int64]struct{}{}
	for i, id := range ev.MustCol("imsi").Ints {
		post[id] = append(post[id], base+i)
		if _, ok := m.universe[id]; ok {
			affected[id] = struct{}{}
		}
	}
	m.applied += ev.NumRows()
	ids := make([]int64, 0, len(affected))
	for id := range affected {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, ev.NumRows(), nil
}

// customerTables assembles one customer's slice of every table, rows in
// maintained order. Callers hold m.mu.
func (m *Maintainer) customerTables(id int64) Tables {
	take := func(name string) *table.Table {
		return m.tbl[name].Take(m.idx[name][id])
	}
	return Tables{
		Calls:      take(synth.TableCalls),
		Messages:   take(synth.TableMessages),
		Recharges:  take(synth.TableRecharges),
		Billing:    take(synth.TableBilling),
		Customers:  take(synth.TableCustomers),
		Complaints: take(synth.TableComplaints),
		Web:        take(synth.TableWeb),
		Search:     take(synth.TableSearch),
		Locations:  take(synth.TableLocations),
	}
}

// CustomerFrame rebuilds one customer's per-customer feature columns from
// the maintained state: the base groups among groups (in canonical order),
// then F7/F8 topic mixtures when requested (their fitted featurizers must
// be supplied). Graph groups and F9 in groups are ignored — the former are
// cross-customer, the latter is applied to the assembled row by the
// pipeline layer. The resulting one-row frame carries exactly the values a
// full rebuild over the merged data would put in this customer's row.
func (m *Maintainer) CustomerFrame(id int64, groups []Group, complaints, search *TopicFeaturizer) (*Frame, error) {
	if _, ok := m.universe[id]; !ok {
		return nil, fmt.Errorf("%w: imsi %d", ErrNotInUniverse, id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	sel, err := perCustomerFrame(m.customerTables(id), m.win, m.days, 1, GroupSetOf(groups...), complaints, search)
	if err != nil {
		return nil, fmt.Errorf("features: recompute imsi %d: %w", id, err)
	}
	return sel, nil
}
