package features

import (
	"testing"
)

// TestVelocityWindowFiltersEvents verifies that a window shifted past a
// month boundary picks up exactly the events inside it and keeps using the
// prior month's snapshots (the Table 5 machinery).
func TestVelocityWindowFiltersEvents(t *testing.T) {
	months, cfg := simOnce(t)
	tbl, err := FromMonthData(months)
	if err != nil {
		t.Fatal(err)
	}
	days := cfg.DaysPerMonth
	// Window: day 16 of month 2 through day 15 of month 3.
	win := Window{FromAbs: AbsDay(2, 16, days), ToAbs: AbsDay(3, 15, days)}

	frame, err := BuildBaseFeatures(tbl, win, days, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Universe: snapshot month is 2 (mid-month end), so rows match month 2.
	if frame.NumRows() != cfg.Customers {
		t.Errorf("frame rows = %d, want %d", frame.NumRows(), cfg.Customers)
	}

	// Recompute one aggregate by hand over the shifted range.
	inWin := inWindow(tbl.Calls, win, days)
	imsi := tbl.Calls.MustCol("imsi").Ints
	dur := tbl.Calls.MustCol("dur").Floats
	success := tbl.Calls.MustCol("success").Ints
	want := map[int64]float64{}
	for i := range imsi {
		if inWin(i) && success[i] == 1 {
			want[imsi[i]] += dur[i]
		}
	}
	checked := 0
	for _, id := range frame.IDs() {
		w, ok := want[id]
		if !ok {
			continue
		}
		got, _ := frame.Value(id, "voice_dur")
		if diff := got - w; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("voice_dur(%d) = %g, want %g", id, got, w)
		}
		if checked++; checked > 30 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("nothing verified")
	}

	// Balance comes from month 2's snapshot, not month 3's.
	billing2 := snapshotMonth(tbl.Billing, win, days)
	snapBalance := map[int64]float64{}
	for i, id := range billing2.MustCol("imsi").Ints {
		snapBalance[id] = billing2.MustCol("balance").Floats[i]
	}
	for _, id := range frame.IDs()[:20] {
		got, _ := frame.Value(id, "balance")
		if want, ok := snapBalance[id]; ok && got != want {
			t.Fatalf("balance(%d) = %g, want month-2 snapshot %g", id, got, want)
		}
	}
}

// TestDeclineFeatureUsesWindowMidpoint ensures the decline split tracks the
// window, not the calendar month.
func TestDeclineFeatureUsesWindowMidpoint(t *testing.T) {
	months, cfg := simOnce(t)
	tbl, err := FromMonthData(months)
	if err != nil {
		t.Fatal(err)
	}
	days := cfg.DaysPerMonth
	aligned := MonthWindow(2, days)
	shifted := Window{FromAbs: aligned.FromAbs + 10, ToAbs: aligned.ToAbs + 10}

	fa, err := BuildBaseFeatures(tbl, aligned, days, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := BuildBaseFeatures(tbl, shifted, days, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The two windows see different halves; at least some customers must
	// have different decline values.
	diff := 0
	for _, id := range fa.IDs() {
		va, _ := fa.Value(id, "call_dur_decline")
		vb, ok := fs.Value(id, "call_dur_decline")
		if ok && va != vb {
			diff++
		}
	}
	if diff < fa.NumRows()/4 {
		t.Errorf("only %d/%d customers changed decline under a 10-day shift", diff, fa.NumRows())
	}
}
