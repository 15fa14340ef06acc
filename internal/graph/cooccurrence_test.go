package graph_test

import (
	"cmp"
	"slices"
	"testing"

	"telcochurn/internal/features"
	"telcochurn/internal/graph"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// cubeCap is the co-occurrence fold's member cap: a cube keeps its 30
// smallest customer ids.
const cubeCap = 30

// cooccurrenceEdges is the reference for the co-occurrence graph of a
// month: every cube's distinct customers, capped, paired, and each pair's
// shared cubes counted — returned as the sorted (lo-id, hi-id) edge list
// over ids, the ascending distinct ids of its endpoints.
func cooccurrenceEdges(loc *table.Table, month int) (ids []int64, edges []graph.Edge) {
	type cube struct{ day, slot, cell int64 }
	members := map[cube][]int64{}
	imsi, mon, day := loc.MustCol("imsi").Ints, loc.MustCol("month").Ints, loc.MustCol("day").Ints
	slot, cell := loc.MustCol("slot").Ints, loc.MustCol("cell").Ints
	for i, id := range imsi {
		if mon[i] == int64(month) && synth.IsCustomerID(id) {
			k := cube{day[i], slot[i], cell[i]}
			members[k] = append(members[k], id)
		}
	}
	count := map[[2]int64]int{}
	for _, m := range members {
		slices.Sort(m)
		m = slices.Compact(m)
		m = m[:min(len(m), cubeCap)]
		for x := range m {
			for _, y := range m[x+1:] {
				count[[2]int64{m[x], y}]++
			}
		}
	}
	pairs := make([][2]int64, 0, len(count))
	for p := range count {
		pairs = append(pairs, p)
		ids = append(ids, p[0], p[1])
	}
	slices.SortFunc(pairs, func(a, b [2]int64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	slices.Sort(ids)
	ids = slices.Compact(ids)
	rank := func(id int64) int32 { r, _ := slices.BinarySearch(ids, id); return int32(r) }
	for _, p := range pairs {
		edges = append(edges, graph.Edge{U: rank(p[0]), V: rank(p[1]), W: float64(count[p])})
	}
	return ids, edges
}

// TestCooccurrenceCSRMatchesEdgeList pins the co-occurrence graph, built
// straight from the per-chunk tallies, to FromEdges over the sorted edge
// list on all five arrays, at several shard and worker counts. The world
// has a customer seen only alone in a cell of their own (no co-members),
// and above one shard the last shard is fed no rows.
func TestCooccurrenceCSRMatchesEdgeList(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Customers, cfg.Months, cfg.BurnInMonths, cfg.Seed = 400, 2, 1, 5
	months := synth.Simulate(cfg)
	r := features.MonthReader{}
	for _, md := range months {
		r[md.Month] = md
	}
	tbl, err := features.LoadTablesFrom(r, features.Window{FromAbs: 1, ToAbs: 2 * cfg.DaysPerMonth}, cfg.DaysPerMonth)
	if err != nil {
		t.Fatal(err)
	}
	const month, lonely = 2, int64(4_999_999)
	for day := int64(1); day <= 3; day++ {
		if err := tbl.Locations.AppendRow(lonely, int64(month), day, int64(0), int64(9999), int64(0), 31.0, 121.0); err != nil {
			t.Fatal(err)
		}
	}
	ids, edges := cooccurrenceEdges(tbl.Locations, month)
	if slices.Contains(ids, lonely) {
		t.Fatal("fixture: the lonely customer has co-members")
	}
	want := graph.FromEdges(ids, edges)
	win := features.MonthWindow(month, cfg.DaysPerMonth)
	for _, shards := range []int{1, 3, 8} {
		fed := max(shards-1, 1) // the last of several shards stays empty
		keys := tbl.Locations.MustCol("imsi").Ints
		acc := features.NewGraphAccumulator(shards, []features.Group{features.F6CooccurrenceGraph})
		for s := range shards {
			loc := table.NewTable(synth.LocationsSchema)
			if s < fed {
				loc = tbl.Locations.Filter(func(i int) bool { return table.ShardOf(keys[i], fed) == s })
			}
			acc.Feed(s, features.Tables{Locations: loc}, win, cfg.DaysPerMonth, synth.IsCustomerID)
		}
		for _, workers := range []int{1, 2, 7} {
			acc.Workers = workers
			_, _, got := acc.Finalize()
			if err := graph.SameArrays(want, got); err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
		}
	}
	if len(edges) == 0 {
		t.Fatal("fixture has no co-occurrence edges")
	}
	t.Logf("%d vertices, %d edges", len(ids), len(edges))
}
