package features_test

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"telcochurn/internal/core"
	"telcochurn/internal/faults"
	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// tableList lists a load's nine tables in canonical order.
func tableList(t features.Tables) []*table.Table {
	return []*table.Table{t.Calls, t.Messages, t.Recharges, t.Billing, t.Customers,
		t.Complaints, t.Web, t.Search, t.Locations}
}

// sameBits fails unless the two loads hold the same schemas and the same
// values, floats compared by their bits.
func sameBits(t *testing.T, what string, got, want features.Tables) {
	t.Helper()
	g, w := tableList(got), tableList(want)
	for i := range w {
		if !g[i].Schema.Equal(w[i].Schema) || g[i].NumRows() != w[i].NumRows() {
			t.Fatalf("%s: table %d: %s × %d rows, want %s × %d", what, i, g[i].Schema, g[i].NumRows(), w[i].Schema, w[i].NumRows())
		}
		for c, wc := range w[i].Cols {
			gc := g[i].Cols[c]
			same := slices.Equal(gc.Ints, wc.Ints) && slices.Equal(gc.Strings, wc.Strings) &&
				slices.EqualFunc(gc.Floats, wc.Floats, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
			if !same {
				t.Fatalf("%s: table %d column %q differs", what, i, wc.Name)
			}
		}
	}
}

// TestLoadTablesSameAtAnyWorkerCount: reading a window's nine tables one
// at a time and two at a time gives the same tables — over a plain month,
// a whole month of an 8-shard landing and a 3-month window — and, under a
// seeded fault schedule with one table missing and one failing once, the
// same strict error, the same degraded missing list and the same fired
// faults.
func TestLoadTablesSameAtAnyWorkerCount(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Customers = 150
	cfg.Months = 3
	cfg.Seed = 11
	days := cfg.DaysPerMonth
	plain, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.GenerateToWarehouse(cfg, plain); err != nil {
		t.Fatal(err)
	}
	sharded, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sharded.Sharded(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.GenerateToShardedWarehouse(cfg, sw); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		r    features.TableReader
		win  features.Window
	}{
		{"plain month", plain, features.MonthWindow(2, days)},
		{"8-shard whole month", sharded, features.MonthWindow(2, days)},
		{"3-month window", plain, features.Window{FromAbs: 1, ToAbs: 3 * days}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one, miss1, err := features.LoadTables(tc.r, tc.win, days, true, 1)
			if err != nil || miss1 != nil {
				t.Fatalf("serial load: missing %v, err %v", miss1, err)
			}
			two, miss2, err := features.LoadTables(tc.r, tc.win, days, true, 2)
			if err != nil || miss2 != nil {
				t.Fatalf("concurrent load: missing %v, err %v", miss2, err)
			}
			sameBits(t, tc.name, two, one)
		})
	}

	// A fault source under a retrying one, as production stacks them: a
	// missing partition stays missing, a transient failure heals on retry.
	win := features.MonthWindow(2, days)
	src := core.NewWarehouseSource(plain, days)
	noSleep := func(time.Duration) {}
	type outcome struct {
		tbl     features.Tables
		missing []string
		err     string
		counts  faults.Counts
	}
	load := func(seed int64, strict bool, workers int) outcome {
		inj := faults.New(faults.Config{Seed: seed, Missing: 0.08, Transient: 0.15, Sleep: noSleep})
		rs := core.NewRetrySource(faults.Wrap(src, inj), core.RetryConfig{Seed: seed, Sleep: noSleep})
		tbl, missing, err := features.LoadTables(rs.ShardReader(-1), win, days, strict, workers)
		return outcome{tbl, missing, fmt.Sprint(err), inj.Counts()}
	}
	// The first schedule that misses one event table and fails one read once.
	seed := int64(1)
	for ; seed <= 500; seed++ {
		o := load(seed, false, 1)
		if o.counts == (faults.Counts{Missing: 1, Transients: 1}) && len(o.missing) == 1 {
			break
		}
	}
	if seed > 500 {
		t.Fatal("no seed in 1..500 gives one missing and one transient table")
	}
	for _, strict := range []bool{true, false} {
		one, two := load(seed, strict, 1), load(seed, strict, 2)
		what := fmt.Sprintf("seed %d strict %v", seed, strict)
		if one.err != two.err || !slices.Equal(one.missing, two.missing) || one.counts != two.counts {
			t.Fatalf("%s: serial %q %v %+v, concurrent %q %v %+v", what,
				one.err, one.missing, one.counts, two.err, two.missing, two.counts)
		}
		if strict {
			if one.err == "<nil>" {
				t.Fatalf("%s: strict load survived a missing table", what)
			}
			continue
		}
		if one.err != "<nil>" {
			t.Fatalf("%s: degraded load: %s", what, one.err)
		}
		sameBits(t, what, two.tbl, one.tbl)
	}
}
