package synth

import (
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"telcochurn/internal/store"
	"telcochurn/internal/table"
)

// sameTable reports whether two tables have one schema and equal columns,
// floats compared by their bits.
func sameTable(a, b *table.Table) bool {
	if !a.Schema.Equal(b.Schema) || a.NumRows() != b.NumRows() {
		return false
	}
	for c, ca := range a.Cols {
		cb := b.Cols[c]
		if !slices.Equal(ca.Ints, cb.Ints) || !slices.Equal(ca.Strings, cb.Strings) || len(ca.Floats) != len(cb.Floats) {
			return false
		}
		for i, f := range ca.Floats {
			if math.Float64bits(f) != math.Float64bits(cb.Floats[i]) {
				return false
			}
		}
	}
	return true
}

// TestGenerateRoundTripsSimulate: a world landed in a warehouse reads back
// as exactly the tables Simulate returns for the same config, over months
// in which churners leave and entrants are wired into the social graph.
func TestGenerateRoundTripsSimulate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Customers = 400
	cfg.Months = 3
	cfg.Seed = 4
	cfg.BurnInMonths = 1
	wh, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wh.SetSync(store.SyncPolicy{Mode: store.SyncOff})
	if err := GenerateToWarehouse(cfg, wh); err != nil {
		t.Fatal(err)
	}
	entrants := 0
	for _, md := range Simulate(cfg) {
		for name, want := range md.Tables() {
			got, err := wh.ReadPartition(name, md.Month)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTable(got, want) {
				t.Errorf("%s month %d: the warehouse holds %d rows unequal to Simulate's %d", name, md.Month, got.NumRows(), want.NumRows())
			}
		}
		for _, id := range md.Customers.MustCol("imsi").Ints {
			if id >= 1_000_000+int64(cfg.Customers) {
				entrants++
			}
		}
	}
	if entrants == 0 {
		t.Fatal("no entrant joined the world: the round trip never wired one")
	}
}

// failingSink records the months written to it and fails the named tables'
// writes of one month.
type failingSink struct {
	month int
	fail  []string

	mu     sync.Mutex
	writes map[int]int
}

var errDiskFull = errors.New("disk full")

func (s *failingSink) WritePartition(name string, month int, t *table.Table) error {
	s.mu.Lock()
	s.writes[month]++
	s.mu.Unlock()
	if month == s.month && slices.Contains(s.fail, name) {
		return errDiskFull
	}
	return nil
}

// TestGenerateStopsAtFailedMonth: when several of a month's partition
// writes fail, generation returns the first failing table in name order
// with the month, whichever write failed first, and simulates no later
// month.
func TestGenerateStopsAtFailedMonth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Customers = 100
	cfg.Months = 4
	cfg.BurnInMonths = 1
	for run := 0; run < 5; run++ {
		sink := &failingSink{month: 2, fail: []string{TableWeb, TableCalls, TableTruth}, writes: map[int]int{}}
		err := generateTo(cfg, sink)
		if !errors.Is(err, errDiskFull) || !strings.Contains(err.Error(), "write calls month 2") {
			t.Fatalf("run %d: error %v, want the calls write of month 2", run, err)
		}
		if sink.writes[1] != 10 || sink.writes[2] != 10 || len(sink.writes) != 2 {
			t.Fatalf("run %d: partition writes per month %v, want 10 in months 1 and 2 and none later", run, sink.writes)
		}
	}
}
