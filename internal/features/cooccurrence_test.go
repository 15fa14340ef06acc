package features

import (
	"testing"

	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// locFixture builds a Locations table by hand so edge weights can be
// asserted exactly.
func locFixture(t *testing.T, rows [][5]int64) Tables {
	t.Helper()
	loc := table.NewTable(synth.LocationsSchema)
	for _, r := range rows {
		// imsi, month, day, slot, cell
		if err := loc.AppendRow(r[0], r[1], r[2], r[3], r[4], int64(0), 31.0, 121.0); err != nil {
			t.Fatal(err)
		}
	}
	return Tables{Locations: loc}
}

func TestCooccurrenceEdgeWeights(t *testing.T) {
	a, b, c := int64(1_000_001), int64(1_000_002), int64(1_000_003)
	tbl := locFixture(t, [][5]int64{
		// Cube (month1, day1, slot0, cell7): a, b, and a duplicate fix of a.
		{a, 1, 1, 0, 7},
		{b, 1, 1, 0, 7},
		{a, 1, 1, 0, 7},
		// Cube (day2): a and b again -> second co-occurrence.
		{a, 1, 2, 0, 7},
		{b, 1, 2, 0, 7},
		// Different slot: a and c share once.
		{a, 1, 2, 1, 7},
		{c, 1, 2, 1, 7},
		// c alone in another cell: no edge.
		{c, 1, 3, 0, 9},
		// Outside the window: must be ignored.
		{a, 2, 1, 0, 7},
		{b, 2, 1, 0, 7},
	})
	win := MonthWindow(1, 30)
	g := BuildGraphs([]Group{F6CooccurrenceGraph}, tbl, win, 30, synth.IsCustomerID, 0)[2]

	if got := edgeWeight(g, a, b); got != 2 {
		t.Errorf("w(a,b) = %g, want 2 (two shared cubes, duplicate fix deduped)", got)
	}
	if got := edgeWeight(g, a, c); got != 1 {
		t.Errorf("w(a,c) = %g, want 1", got)
	}
	if got := edgeWeight(g, b, c); got != 0 {
		t.Errorf("w(b,c) = %g, want 0", got)
	}
}

func TestCooccurrenceExcludesNonCustomers(t *testing.T) {
	a := int64(1_000_001)
	offnet := int64(5_000_001)
	tbl := locFixture(t, [][5]int64{
		{a, 1, 1, 0, 7},
		{offnet, 1, 1, 0, 7},
	})
	g := BuildGraphs([]Group{F6CooccurrenceGraph}, tbl, MonthWindow(1, 30), 30, synth.IsCustomerID, 0)[2]
	if g.NumVertices() != 0 {
		t.Errorf("off-net fix created %d vertices", g.NumVertices())
	}
}

func TestCallGraphEdgeAccumulation(t *testing.T) {
	calls := table.NewTable(synth.CallsSchema)
	a, b := int64(1_000_001), int64(1_000_002)
	add := func(from, to int64, dur float64, success int64) {
		err := calls.AppendRow(from, to, int64(1), int64(5), dur,
			int64(synth.CallLocalInner), int64(1), int64(synth.OpSelf), success,
			int64(0), 1.0, 4.0, 4.0, 4.0, int64(0), int64(0), int64(0),
			int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
		if err != nil {
			t.Fatal(err)
		}
	}
	add(a, b, 60, 1)
	add(b, a, 30, 1) // reverse direction accumulates on the same edge
	add(a, b, 99, 0) // failed attempt: no edge weight
	tbl := Tables{Calls: calls}
	g := BuildCallGraph(tbl, MonthWindow(1, 30), 30, synth.IsCustomerID)
	if got := edgeWeight(g, a, b); got != 90 {
		t.Errorf("w(a,b) = %g, want 90 (mutual calling time, failures excluded)", got)
	}
}
