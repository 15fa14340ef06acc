package features

import (
	"math"
	"testing"

	"telcochurn/internal/synth"
	"telcochurn/internal/topic"
)

// TestCustomerFramesMatchOneByOne: one CustomerFrames build over several
// customers gives every customer the row its own CustomerFrame gives it,
// bit for bit — for 1, 2, 8 and all customers, with an id listed twice and
// one outside the universe, over F1–F3 alone and with F7/F8 configured —
// after events have appended rows behind the window's own.
func TestCustomerFramesMatchOneByOne(t *testing.T) {
	months, cfg := simOnce(t)
	const month = 2
	win := MonthWindow(month, cfg.DaysPerMonth)
	base := monthTables(t, months[month-1:month])
	comp, err := FitTopicFeaturizer(base.Complaints, win, cfg.DaysPerMonth, F7ComplaintTopics, "complaint", topic.Config{K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	search, err := FitTopicFeaturizer(base.Search, win, cfg.DaysPerMonth, F8SearchTopics, "search", topic.Config{K: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	maint, err := NewMaintainer(base, win, cfg.DaysPerMonth)
	if err != nil {
		t.Fatal(err)
	}
	universe := base.Customers.MustCol("imsi").Ints
	events := synth.GenerateEvents(universe[:30], month, cfg.DaysPerMonth, 300, 9)
	for _, name := range StreamableTables {
		if ev := events[name]; ev != nil {
			if _, _, err := maint.Apply(name, ev); err != nil {
				t.Fatalf("apply %s: %v", name, err)
			}
		}
	}

	const outside = 4_999_999
	sets := map[string][]int64{
		"k=1":       {universe[3]},
		"k=2":       {universe[20], universe[3]},
		"k=8":       {universe[7], universe[0], universe[29], universe[1], universe[15], universe[40], universe[2], universe[28]},
		"all":       universe,
		"duplicate": {universe[5], universe[9], universe[5]},
		"outside":   {universe[11], outside, universe[12]},
	}
	for _, groups := range [][]Group{
		{F1Baseline, F2CS, F3PS},
		{F1Baseline, F2CS, F3PS, F7ComplaintTopics, F8SearchTopics},
	} {
		one := map[int64]*Frame{}
		for name, ids := range sets {
			got, err := maint.CustomerFrames(ids, groups, comp, search)
			if err != nil {
				t.Fatalf("%s %v: %v", name, groups, err)
			}
			distinct := map[int64]bool{}
			for _, id := range ids {
				if id == outside {
					if _, ok := got.Row(id); ok {
						t.Fatalf("%s: imsi %d outside the universe has a row", name, id)
					}
					continue
				}
				distinct[id] = true
				want := one[id]
				if want == nil {
					if want, err = maint.CustomerFrame(id, groups, comp, search); err != nil {
						t.Fatal(err)
					}
					one[id] = want
				}
				wn, gn := want.Names(), got.Names()
				if len(gn) != len(wn) {
					t.Fatalf("%s: %d columns, want %d", name, len(gn), len(wn))
				}
				wrow, _ := want.Row(id)
				grow, ok := got.Row(id)
				if !ok {
					t.Fatalf("%s: imsi %d has no row", name, id)
				}
				for j := range wn {
					if gn[j] != wn[j] || math.Float64bits(grow[j]) != math.Float64bits(wrow[j]) {
						t.Fatalf("%s %v: imsi %d column %q = %v, its own frame %q = %v", name, groups, id, gn[j], grow[j], wn[j], wrow[j])
					}
				}
			}
			if got.NumRows() != len(distinct) {
				t.Fatalf("%s: %d rows for %d distinct customers", name, got.NumRows(), len(distinct))
			}
		}
	}

	if f, err := maint.CustomerFrames([]int64{outside}, []Group{F1Baseline}, nil, nil); err != nil || f.NumRows() != 0 {
		t.Fatalf("only an outside id: %d rows, %v; want an empty frame", f.NumRows(), err)
	}
}
