package features

import (
	"testing"

	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

func TestMaintainerRejections(t *testing.T) {
	months, cfg := simOnce(t)
	base := monthTables(t, months[0:1])
	win := MonthWindow(1, cfg.DaysPerMonth)

	// Multi-month and partial windows are not maintainable.
	if _, err := NewMaintainer(base, Window{FromAbs: 1, ToAbs: 2 * cfg.DaysPerMonth}, cfg.DaysPerMonth, 0, nil, nil, 1); err == nil {
		t.Error("multi-month window accepted")
	}
	if _, err := NewMaintainer(base, Window{FromAbs: 2, ToAbs: cfg.DaysPerMonth}, cfg.DaysPerMonth, 0, nil, nil, 1); err == nil {
		t.Error("partial-month window accepted")
	}

	maint, err := NewMaintainer(base, win, cfg.DaysPerMonth, 0, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot tables are not streamable.
	if _, _, err := maint.Apply(synth.TableBilling, base.Billing); err == nil {
		t.Error("billing events accepted")
	}
	// Unknown customers have no frame.
	if _, err := maint.CustomerFrame(4_999_999, []Group{F1Baseline}, nil, nil); err == nil {
		t.Error("off-universe customer frame built")
	}
	// Events outside the serving month are skipped, not applied.
	ev := table.NewTable(synth.RechargesSchema)
	if err := ev.AppendRow(base.Customers.MustCol("imsi").Ints[0], int64(7), int64(1), 30.0); err != nil {
		t.Fatal(err)
	}
	ids, n, err := maint.Apply(synth.TableRecharges, ev)
	if err != nil || n != 0 || len(ids) != 0 {
		t.Errorf("out-of-month event: ids=%v n=%d err=%v, want skip", ids, n, err)
	}
}
