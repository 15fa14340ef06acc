package store_test

import (
	"testing"

	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// TestDailyFlowMatchesDirectWrite: splitting a simulated month's CDRs by
// day, appending each day to the event log, and merging at month end must
// reproduce the direct monthly write row-for-row (modulo day ordering).
func TestDailyFlowMatchesDirectWrite(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Customers = 400
	cfg.Months = 1
	md := synth.Simulate(cfg)[0]

	wh, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Direct write.
	if err := wh.WritePartition("calls_direct", 1, md.Calls); err != nil {
		t.Fatal(err)
	}
	// Daily flow: split by the day column, one log batch per day.
	elog, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	dayCol := md.Calls.MustCol("day").Ints
	for day := 1; day <= cfg.DaysPerMonth; day++ {
		d := int64(day)
		slice := md.Calls.Filter(func(i int) bool { return dayCol[i] == d })
		if slice.NumRows() == 0 {
			continue
		}
		if _, err := elog.Append(map[string]*table.Table{"calls": slice}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := elog.MergeInto(); err != nil {
		t.Fatal(err)
	}
	direct, _ := wh.ReadPartition("calls_direct", 1)
	daily, _ := wh.ReadPartition("calls", 1)
	if direct.NumRows() != daily.NumRows() {
		t.Fatalf("daily flow rows %d != direct %d", daily.NumRows(), direct.NumRows())
	}
	// Aggregate equality: total duration per customer must match.
	sum := func(tb *table.Table) map[int64]float64 {
		m := map[int64]float64{}
		ids := tb.MustCol("imsi").Ints
		durs := tb.MustCol("dur").Floats
		for i := range ids {
			m[ids[i]] += durs[i]
		}
		return m
	}
	sd, sy := sum(direct), sum(daily)
	if len(sd) != len(sy) {
		t.Fatalf("customer counts differ: %d vs %d", len(sd), len(sy))
	}
	for id, v := range sd {
		if diff := sy[id] - v; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("duration mismatch for %d", id)
		}
	}
}
