package features

import (
	"errors"
	"fmt"
	"testing"

	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// genWarehouse writes a small synthetic world into a fresh warehouse.
func genWarehouse(t *testing.T) (*store.Warehouse, synth.Config) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Customers = 120
	cfg.Months = 2
	cfg.Seed = 7
	wh, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.GenerateToWarehouse(cfg, wh); err != nil {
		t.Fatal(err)
	}
	return wh, cfg
}

// failReader fails ReadMonths for a chosen set of tables.
type failReader struct {
	inner TableReader
	fail  map[string]bool
}

func (r *failReader) ReadMonths(name string, months []int) (*table.Table, error) {
	if r.fail[name] {
		return nil, fmt.Errorf("injected outage for %s", name)
	}
	return r.inner.ReadMonths(name, months)
}

func TestLoadTablesPartialHealthyMatchesStrict(t *testing.T) {
	wh, cfg := genWarehouse(t)
	win := MonthWindow(1, cfg.DaysPerMonth)

	strict, err := LoadTablesFrom(wh, win, cfg.DaysPerMonth)
	if err != nil {
		t.Fatal(err)
	}
	partial, missing, err := LoadTables(wh, win, cfg.DaysPerMonth, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("healthy warehouse reported missing tables: %v", missing)
	}
	for _, pair := range []struct {
		name string
		a, b *table.Table
	}{
		{"calls", strict.Calls, partial.Calls},
		{"web", strict.Web, partial.Web},
		{"customers", strict.Customers, partial.Customers},
	} {
		if pair.a.NumRows() != pair.b.NumRows() {
			t.Errorf("%s: partial rows %d != strict rows %d", pair.name, pair.b.NumRows(), pair.a.NumRows())
		}
	}
}

func TestLoadTablesPartialSubstitutesEmpties(t *testing.T) {
	wh, cfg := genWarehouse(t)
	win := MonthWindow(1, cfg.DaysPerMonth)
	r := &failReader{inner: wh, fail: map[string]bool{
		synth.TableWeb:       true,
		synth.TableSearch:    true,
		synth.TableLocations: true,
	}}
	tbl, missing, err := LoadTables(r, win, cfg.DaysPerMonth, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 3 {
		t.Fatalf("missing = %v, want web, search, locations", missing)
	}
	if tbl.Web.NumRows() != 0 || !tbl.Web.Schema.Equal(synth.WebSchema) {
		t.Error("web stand-in is not an empty schema-correct table")
	}
	if tbl.Locations.NumRows() != 0 || !tbl.Locations.Schema.Equal(synth.LocationsSchema) {
		t.Error("locations stand-in is not an empty schema-correct table")
	}
	if tbl.Calls.NumRows() == 0 {
		t.Error("present table calls came back empty")
	}

	// A degraded build over these tables still produces the full schema.
	frame, err := BuildBaseFeatures(tbl, win, cfg.DaysPerMonth, 1)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := LoadTablesFrom(wh, win, cfg.DaysPerMonth)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildBaseFeatures(healthy, win, cfg.DaysPerMonth, 1)
	if err != nil {
		t.Fatal(err)
	}
	if frame.NumColumns() != want.NumColumns() || frame.NumRows() != want.NumRows() {
		t.Fatalf("degraded frame %dx%d, healthy %dx%d",
			frame.NumRows(), frame.NumColumns(), want.NumRows(), want.NumColumns())
	}
}

func TestLoadTablesPartialCustomerFloor(t *testing.T) {
	wh, cfg := genWarehouse(t)
	win := MonthWindow(1, cfg.DaysPerMonth)
	r := &failReader{inner: wh, fail: map[string]bool{synth.TableCustomers: true}}
	_, _, err := LoadTables(r, win, cfg.DaysPerMonth, false, 2)
	if !errors.Is(err, ErrUniverseUnavailable) {
		t.Fatalf("err = %v, want ErrUniverseUnavailable", err)
	}
}

func TestDegradationMask(t *testing.T) {
	var d Degradation
	if !d.Empty() || d.String() != "none" {
		t.Errorf("zero mask: %q", d.String())
	}
	d.Add(F3PS)
	d.Add(F6CooccurrenceGraph)
	if d.Empty() || !d.Has(F3PS) || !d.Has(F6CooccurrenceGraph) || d.Has(F1Baseline) {
		t.Errorf("mask bits wrong: %v", d)
	}
	if d.String() != "F3,F6" {
		t.Errorf("String() = %q, want F3,F6", d.String())
	}
	if got := d.Groups(); len(got) != 2 || got[0] != F3PS || got[1] != F6CooccurrenceGraph {
		t.Errorf("Groups() = %v", got)
	}
}

func TestDegradationOfRespectsConfiguredGroups(t *testing.T) {
	missing := []string{synth.TableWeb, synth.TableLocations, synth.TableSearch}
	// F1-only pipeline: web degrades F1 columns; locations/search do not
	// touch F1.
	d := DegradationOf(missing, GroupSetOf(F1Baseline))
	if d.String() != "F1" {
		t.Errorf("F1-only mask = %q, want F1", d)
	}
	// Full pipeline: all backed groups flagged.
	d = DegradationOf(missing, GroupSetOf(AllGroups()...))
	for _, g := range []Group{F1Baseline, F3PS, F6CooccurrenceGraph, F8SearchTopics} {
		if !d.Has(g) {
			t.Errorf("full mask missing %v (got %q)", g, d)
		}
	}
	if d.Has(F4CallGraph) || d.Has(F7ComplaintTopics) {
		t.Errorf("mask flags untouched groups: %q", d)
	}
}

func TestEmptyRawTable(t *testing.T) {
	for name := range rawSchemas {
		tb, err := EmptyRawTable(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tb.NumRows() != 0 {
			t.Errorf("%s: %d rows, want 0", name, tb.NumRows())
		}
		if err := tb.Validate(); err != nil {
			t.Errorf("%s: invalid empty table: %v", name, err)
		}
	}
	if _, err := EmptyRawTable("no-such-table"); err == nil {
		t.Error("unknown table name accepted")
	}
}
