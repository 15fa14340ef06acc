package features

import (
	"math"
	"testing"

	"telcochurn/internal/synth"
	"telcochurn/internal/table"
	"telcochurn/internal/topic"
)

func tableByName(tbl *Tables, name string) **table.Table {
	switch name {
	case synth.TableCalls:
		return &tbl.Calls
	case synth.TableMessages:
		return &tbl.Messages
	case synth.TableRecharges:
		return &tbl.Recharges
	case synth.TableComplaints:
		return &tbl.Complaints
	case synth.TableWeb:
		return &tbl.Web
	case synth.TableSearch:
		return &tbl.Search
	case synth.TableLocations:
		return &tbl.Locations
	}
	return nil
}

// TestMaintainerMatchesShardedRebuild is the bit-identity property test:
// replaying N synth events through the incremental maintainer yields
// per-customer feature values Float64bits-identical to a from-scratch
// BuildShardedFrame over the merged data (base tables with the same events
// appended, as store.EventLog.MergeInto would leave them).
func TestMaintainerMatchesShardedRebuild(t *testing.T) {
	months, cfg := simOnce(t)
	const month = 2
	win := MonthWindow(month, cfg.DaysPerMonth)
	base := monthTables(t, months[month-1:month])

	// Featurizers are fitted once on the pre-event corpus, exactly as a
	// trained artifact's featurizers predate streamed events.
	comp, err := FitTopicFeaturizer(base.Complaints, win, cfg.DaysPerMonth, F7ComplaintTopics, "complaint", topic.Config{K: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	search, err := FitTopicFeaturizer(base.Search, win, cfg.DaysPerMonth, F8SearchTopics, "search", topic.Config{K: 5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}

	universe := base.Customers.MustCol("imsi").Ints
	targets := append([]int64(nil), universe[:40]...)
	targets = append(targets, 4_999_999) // off-universe: logged, maintains nothing
	events := synth.GenerateEvents(targets, month, cfg.DaysPerMonth, 400, 7)
	if len(events) < 5 {
		t.Fatalf("generator produced only %d tables", len(events))
	}

	// Incremental path: fold the events into a maintainer over the
	// simulator's own tables, which it must never write into.
	maint, err := NewMaintainer(base, win, cfg.DaysPerMonth)
	if err != nil {
		t.Fatal(err)
	}
	affected := map[int64]bool{}
	applied := 0
	for _, name := range StreamableTables {
		ev := events[name]
		if ev == nil {
			continue
		}
		ids, n, err := maint.Apply(name, ev)
		if err != nil {
			t.Fatalf("apply %s: %v", name, err)
		}
		applied += n
		for _, id := range ids {
			affected[id] = true
		}
	}
	if applied == 0 || len(affected) == 0 {
		t.Fatalf("no events applied (applied=%d affected=%d)", applied, len(affected))
	}
	if maint.Applied() != applied {
		t.Fatalf("Applied() = %d, want %d", maint.Applied(), applied)
	}
	if affected[4_999_999] {
		t.Fatal("off-universe customer reported as affected")
	}

	// Control path: from-scratch sharded build over the merged data. The
	// maintained snapshot holds exactly the merged rows, so the simulator's
	// tables did not grow under the maintainer.
	snap := maint.Snapshot()
	merged := base
	for _, name := range StreamableTables {
		ev := events[name]
		if ev == nil {
			continue
		}
		dst := tableByName(&merged, name)
		*dst = (*dst).Clip()
		if err := (*dst).AppendTable(ev); err != nil {
			t.Fatal(err)
		}
		if got, want := snap[name].NumRows(), (*dst).NumRows(); got != want {
			t.Fatalf("maintained %s has %d rows, merged %d", name, got, want)
		}
	}
	groups := []Group{F1Baseline, F2CS, F3PS, F7ComplaintTopics, F8SearchTopics}
	spec := shardedSpec(t, merged, 4, 2, win, cfg.DaysPerMonth, groups)
	spec.Complaints = comp
	spec.Search = search
	want, _, err := BuildShardedFrame(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Every affected customer's maintained row must be bit-identical to
	// the rebuilt frame's row, column for column.
	names := want.Names()
	for id := range affected {
		got, err := maint.CustomerFrame(id, groups, comp, search)
		if err != nil {
			t.Fatalf("customer frame %d: %v", id, err)
		}
		gn := got.Names()
		if len(gn) != len(names) {
			t.Fatalf("imsi %d: %d columns, want %d", id, len(gn), len(names))
		}
		wrow, ok := want.Row(id)
		if !ok {
			t.Fatalf("imsi %d missing from rebuilt frame", id)
		}
		grow, ok := got.Row(id)
		if !ok {
			t.Fatalf("imsi %d missing from its own frame", id)
		}
		for j := range names {
			if gn[j] != names[j] {
				t.Fatalf("imsi %d column %d: %q vs %q", id, j, gn[j], names[j])
			}
			if math.Float64bits(grow[j]) != math.Float64bits(wrow[j]) {
				t.Fatalf("imsi %d col %q: incremental %v vs rebuild %v (not bit-identical)",
					id, names[j], grow[j], wrow[j])
			}
		}
	}

	// And an untouched customer still matches too (nothing leaked).
	for _, id := range universe {
		if !affected[id] {
			got, err := maint.CustomerFrame(id, groups, comp, search)
			if err != nil {
				t.Fatal(err)
			}
			wrow, _ := want.Row(id)
			grow, _ := got.Row(id)
			for j := range names {
				if math.Float64bits(grow[j]) != math.Float64bits(wrow[j]) {
					t.Fatalf("untouched imsi %d col %q drifted", id, names[j])
				}
			}
			break
		}
	}
}

func TestMaintainerRejections(t *testing.T) {
	months, cfg := simOnce(t)
	base := monthTables(t, months[0:1])
	win := MonthWindow(1, cfg.DaysPerMonth)

	// Multi-month and partial windows are not maintainable.
	if _, err := NewMaintainer(base, Window{FromAbs: 1, ToAbs: 2 * cfg.DaysPerMonth}, cfg.DaysPerMonth); err == nil {
		t.Error("multi-month window accepted")
	}
	if _, err := NewMaintainer(base, Window{FromAbs: 2, ToAbs: cfg.DaysPerMonth}, cfg.DaysPerMonth); err == nil {
		t.Error("partial-month window accepted")
	}

	maint, err := NewMaintainer(base, win, cfg.DaysPerMonth)
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
