package features

import (
	"errors"
	"fmt"

	"telcochurn/internal/parallel"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// Degraded-mode table loading. The paper's platform treats the BSS feeds
// (F1) as always available while the OSS/xDR feeds backing F2-F8 can lag or
// drop (§5.4: CS/PS probes and DPI are separate collection systems). This
// file lets the wide-table build survive missing raw tables: an unavailable
// table is replaced by an empty table with its canonical schema, so every
// configured column still materializes — customers simply take the column's
// imputation default — and the caller receives a Degradation bitmask naming
// the feature groups built from imputed data. The customer snapshot is the
// floor: without it there is no row universe and loading fails with
// ErrUniverseUnavailable.

// ErrUniverseUnavailable is returned when the customer snapshot table — the
// row universe of the wide table — cannot be loaded. There is no degraded
// mode below it: with no customer list there is nothing to score.
var ErrUniverseUnavailable = errors.New("features: customer universe unavailable")

// TableReader reads one raw table's partitions for the given months,
// joined in month order. It is the one read seam: *store.Warehouse and its
// per-shard readers implement it, a core.Source opens one per load, and
// the retry and fault-injection layers each wrap it with a single
// ReadMonths.
//
// An implementation must be safe for concurrent ReadMonths calls of
// different tables: LoadTables reads a window's nine tables at once. A
// returned table may be shared with the reader (an in-memory month);
// callers read it and never write into it.
type TableReader interface {
	ReadMonths(name string, months []int) (*table.Table, error)
}

// Degradation is the set of feature groups that were assembled from
// imputed data because a backing raw table was unavailable. Empty means a
// fully healthy build.
type Degradation = GroupSet

// tableGroups maps each raw table to the feature groups it backs. A missing
// table degrades exactly these groups (intersected with the configured
// ones). The customer snapshot is absent: it is required, not degradable.
var tableGroups = map[string][]Group{
	synth.TableCalls:      {F1Baseline, F2CS, F4CallGraph},
	synth.TableMessages:   {F1Baseline, F5MessageGraph},
	synth.TableRecharges:  {F1Baseline},
	synth.TableBilling:    {F1Baseline},
	synth.TableComplaints: {F1Baseline, F7ComplaintTopics},
	synth.TableWeb:        {F1Baseline, F3PS},
	synth.TableSearch:     {F8SearchTopics},
	synth.TableLocations:  {F3PS, F6CooccurrenceGraph},
}

// rawSchemas maps raw table names to their canonical schemas, for
// synthesizing empty stand-ins when a table is unavailable.
var rawSchemas = map[string]*table.Schema{
	synth.TableCalls:      synth.CallsSchema,
	synth.TableMessages:   synth.MessagesSchema,
	synth.TableRecharges:  synth.RechargesSchema,
	synth.TableBilling:    synth.BillingSchema,
	synth.TableCustomers:  synth.CustomersSchema,
	synth.TableComplaints: synth.ComplaintsSchema,
	synth.TableWeb:        synth.WebSchema,
	synth.TableSearch:     synth.SearchSchema,
	synth.TableLocations:  synth.LocationsSchema,
}

// RawSchema returns the canonical schema of the named raw table, or false
// for unknown names. The streaming ingest path uses it to assemble typed
// event rows from wire records.
func RawSchema(name string) (*table.Schema, bool) {
	s, ok := rawSchemas[name]
	return s, ok
}

// EmptyRawTable returns a zero-row table with the canonical schema of the
// named raw table — the degraded-mode stand-in for an unavailable feed.
// Aggregations over it produce no per-customer values, so every column it
// backs lands at that column's imputation default.
func EmptyRawTable(name string) (*table.Table, error) {
	s, ok := rawSchemas[name]
	if !ok {
		return nil, fmt.Errorf("features: unknown raw table %q", name)
	}
	return table.NewTable(s), nil
}

// DegradationOf maps missing raw tables onto the feature groups they
// degrade, restricted to the configured groups (a missing search log does
// not degrade an F1-only pipeline).
func DegradationOf(missing []string, configured GroupSet) Degradation {
	var d Degradation
	for _, name := range missing {
		d |= GroupSetOf(tableGroups[name]...)
	}
	return d & configured
}

// LoadTables is the one window load: the nine raw tables overlapping the
// window, each a single ReadMonths, read by up to workers goroutines (0 =
// GOMAXPROCS). Every table is read whatever became of the others, and the
// results are taken in canonical order, so what a load returns — and what
// a fault injector or retrying reader below it saw — is the same at any
// worker count. Strict fails on the first unavailable table in that order;
// otherwise a table still unavailable after whatever retries the reader
// performs becomes an empty schema-correct stand-in and is reported
// missing, in canonical order. Only the customer snapshot is required; its
// failure aborts with ErrUniverseUnavailable. With no tables missing the
// result is the strict one.
func LoadTables(r TableReader, win Window, daysPerMonth int, strict bool, workers int) (Tables, []string, error) {
	return loadTables(r, win.Months(daysPerMonth), strict, workers)
}

func loadTables(r TableReader, months []int, strict bool, workers int) (Tables, []string, error) {
	var t Tables
	refs := t.refs()
	errs := make([]error, len(refs))
	parallel.ForGrain(workers, len(refs), 1, func(i int) {
		*refs[i].dst, errs[i] = r.ReadMonths(refs[i].name, months)
	})
	var missing []string
	for i, p := range refs {
		err := errs[i]
		switch {
		case err == nil:
		case strict:
			return Tables{}, nil, fmt.Errorf("features: load %s: %w", p.name, err)
		case p.name == synth.TableCustomers:
			return Tables{}, nil, fmt.Errorf("%w: %v", ErrUniverseUnavailable, err)
		default:
			if *p.dst, err = EmptyRawTable(p.name); err != nil {
				return Tables{}, nil, err
			}
			missing = append(missing, p.name)
		}
	}
	return t, missing, nil
}
