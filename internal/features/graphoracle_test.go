package features

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"telcochurn/internal/graph"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// The map-based graph accumulator GraphAccumulator replaced, kept verbatim
// as the reference but for its non-finite call filter: per-directed-edge
// map sums, min-30 cube sets, edges built by graph.FromUpper from its own
// sorted pair list (fromPairs). TestGraphFoldMatchesMapOracle
// and TestGraphFoldEdgeCases pin the production fold to it bit for bit.
const mapCubeCap = 30

type dirEdge struct{ from, to int64 }

type cubeKey struct{ abs, slot, cell int64 }

type mapPartials struct {
	call  map[dirEdge]float64
	msg   map[dirEdge]float64
	cubes map[cubeKey][]int64 // sorted ascending, <= mapCubeCap ids
}

// mapAccumulator merges shard-local graph partials into the canonical
// F4-F6 graphs. Feed each shard's tables (any order, one goroutine per shard
// is safe — partials are per-shard), then Finalize once.
type mapAccumulator struct {
	wantCall, wantMsg, wantCooc bool
	parts                       []mapPartials
}

// newMapAccumulator sizes an accumulator for the given shard count,
// collecting only the graphs backing the requested groups.
func newMapAccumulator(shards int, groups []Group) *mapAccumulator {
	a := &mapAccumulator{parts: make([]mapPartials, shards)}
	for _, g := range groups {
		switch g {
		case F4CallGraph:
			a.wantCall = true
		case F5MessageGraph:
			a.wantMsg = true
		case F6CooccurrenceGraph:
			a.wantCooc = true
		}
	}
	for i := range a.parts {
		if a.wantCall {
			a.parts[i].call = map[dirEdge]float64{}
		}
		if a.wantMsg {
			a.parts[i].msg = map[dirEdge]float64{}
		}
		if a.wantCooc {
			a.parts[i].cubes = map[cubeKey][]int64{}
		}
	}
	return a
}

// Feed accumulates one shard's slice of the raw tables. Row filters mirror
// the in-memory builders exactly; isCustomer must be the same universe-or-
// previous-churner predicate AddGraphFeatures uses, over the FULL merged
// universe — which is why the sharded build resolves the universe before
// loading event tables.
func (a *mapAccumulator) Feed(shard int, tbl Tables, win Window, daysPerMonth int, isCustomer func(int64) bool) {
	p := &a.parts[shard]
	if a.wantCall {
		calls := tbl.Calls
		inWin := inWindow(calls, win, daysPerMonth)
		imsi := calls.MustCol("imsi").Ints
		peer := calls.MustCol("peer").Ints
		dur := calls.MustCol("dur").Floats
		success := calls.MustCol("success").Ints
		svc := calls.MustCol("svc").Ints
		for i := 0; i < calls.NumRows(); i++ {
			if !inWin(i) || success[i] != 1 || svc[i] == 1 || !(dur[i] > 0 && dur[i] <= math.MaxFloat64) {
				continue
			}
			if !isCustomer(peer[i]) {
				continue
			}
			p.call[dirEdge{imsi[i], peer[i]}] += dur[i]
		}
	}
	if a.wantMsg {
		msgs := tbl.Messages
		inWin := inWindow(msgs, win, daysPerMonth)
		imsi := msgs.MustCol("imsi").Ints
		peer := msgs.MustCol("peer").Ints
		kind := msgs.MustCol("kind").Ints
		for i := 0; i < msgs.NumRows(); i++ {
			if !inWin(i) || kind[i] != 0 {
				continue
			}
			if !isCustomer(peer[i]) {
				continue
			}
			p.msg[dirEdge{imsi[i], peer[i]}]++
		}
	}
	if a.wantCooc {
		loc := tbl.Locations
		inWin := inWindow(loc, win, daysPerMonth)
		imsi := loc.MustCol("imsi").Ints
		day := loc.MustCol("day").Ints
		month := loc.MustCol("month").Ints
		slot := loc.MustCol("slot").Ints
		cell := loc.MustCol("cell").Ints
		for i := 0; i < loc.NumRows(); i++ {
			if !inWin(i) || !isCustomer(imsi[i]) {
				continue
			}
			c := cubeKey{abs: month[i]*64 + day[i], slot: slot[i], cell: cell[i]}
			p.cubes[c] = insertCapped(p.cubes[c], imsi[i], mapCubeCap)
		}
	}
}

// insertCapped inserts id into the sorted set m, keeping only the cap
// smallest members. The min-cap of a union is merge-order independent, which
// is what makes cube membership shard-count invariant.
func insertCapped(m []int64, id int64, cap int) []int64 {
	i := sort.Search(len(m), func(j int) bool { return m[j] >= id })
	if i < len(m) && m[i] == id {
		return m
	}
	if len(m) >= cap {
		if i >= cap {
			return m
		}
		copy(m[i+1:], m[i:len(m)-1])
		m[i] = id
		return m
	}
	m = append(m, 0)
	copy(m[i+1:], m[i:len(m)-1])
	m[i] = id
	return m
}

// mergeCapped merges two sorted capped sets, keeping the cap smallest.
func mergeCapped(a, b []int64, cap int) []int64 {
	if len(a) == 0 {
		return append([]int64(nil), b...)
	}
	out := make([]int64, 0, min(len(a)+len(b), cap))
	i, j := 0, 0
	for len(out) < cap && (i < len(a) || j < len(b)) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default: // equal
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Finalize materializes the requested graphs (nil for groups not collected).
// Vertices appear in ascending-id order of their first sorted edge and edges
// insert in sorted (min-id, max-id) order, so downstream PageRank and label
// propagation fold adjacencies in a canonical order.
func (a *mapAccumulator) Finalize() (call, msg, cooc *graph.Graph) {
	if a.wantCall {
		call = a.finalizeDirected(func(p *mapPartials) map[dirEdge]float64 { return p.call })
	}
	if a.wantMsg {
		msg = a.finalizeDirected(func(p *mapPartials) map[dirEdge]float64 { return p.msg })
	}
	if a.wantCooc {
		cooc = a.finalizeCooccurrence()
	}
	return call, msg, cooc
}

func (a *mapAccumulator) finalizeDirected(sel func(*mapPartials) map[dirEdge]float64) *graph.Graph {
	merged := map[dirEdge]float64{}
	for i := range a.parts {
		for e, w := range sel(&a.parts[i]) {
			merged[e] += w
		}
	}
	pairs := make([]dirEdge, 0, len(merged))
	seen := map[dirEdge]bool{}
	for e := range merged {
		u := dirEdge{min(e.from, e.to), max(e.from, e.to)}
		if !seen[u] {
			seen[u] = true
			pairs = append(pairs, u)
		}
	}
	sort.Slice(pairs, func(x, y int) bool {
		if pairs[x].from != pairs[y].from {
			return pairs[x].from < pairs[y].from
		}
		return pairs[x].to < pairs[y].to
	})
	return fromPairs(pairs, func(u dirEdge) float64 {
		w := merged[dirEdge{u.from, u.to}]
		if u.from != u.to {
			w += merged[dirEdge{u.to, u.from}]
		}
		return w
	})
}

func (a *mapAccumulator) finalizeCooccurrence() *graph.Graph {
	merged := map[cubeKey][]int64{}
	for i := range a.parts {
		for c, ids := range a.parts[i].cubes {
			merged[c] = mergeCapped(merged[c], ids, mapCubeCap)
		}
	}
	weights := map[dirEdge]float64{}
	for _, m := range merged {
		// Members are sorted, so every pair is already (min-id, max-id);
		// integer counts make the accumulation order irrelevant.
		for x := 0; x < len(m); x++ {
			for y := x + 1; y < len(m); y++ {
				weights[dirEdge{m[x], m[y]}]++
			}
		}
	}
	pairs := make([]dirEdge, 0, len(weights))
	for e := range weights {
		pairs = append(pairs, e)
	}
	sort.Slice(pairs, func(x, y int) bool {
		if pairs[x].from != pairs[y].from {
			return pairs[x].from < pairs[y].from
		}
		return pairs[x].to < pairs[y].to
	})
	return fromPairs(pairs, func(e dirEdge) float64 { return weights[e] })
}

// fromPairs builds the graph of the undirected edges {from, to}, given in
// sorted (from, to) order with from <= to, numbering the ids they name by
// first appearance; a pair with from == to is no edge.
func fromPairs(pairs []dirEdge, weight func(dirEdge) float64) *graph.Graph {
	var ids []int64
	for _, e := range pairs {
		ids = append(ids, e.from, e.to)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	rank := map[int64]int32{}
	for r, id := range ids {
		rank[id] = int32(r)
	}
	run := graph.Rows[float64]{Len: make([]int32, len(ids))}
	for _, e := range pairs {
		if e.from == e.to {
			continue
		}
		run.Len[rank[e.from]]++
		run.Col = append(run.Col, rank[e.to])
		run.W = append(run.W, weight(e))
	}
	return graph.FromUpper(ids, []graph.Rows[float64]{run}, 1)
}

// adjacent returns id's neighbours and edge weights in adjacency order,
// read through Graph.Adj; nil when id is not a vertex.
func adjacent(g *graph.Graph, id int64) (to []int64, w []float64) {
	i := slices.Index(g.IDs(), id)
	if i < 0 {
		return nil, nil
	}
	nb, w := g.Adj(i)
	for _, j := range nb {
		to = append(to, g.IDs()[j])
	}
	return to, w
}

// edgeWeight returns the weight of edge {a, b}, 0 when there is none.
func edgeWeight(g *graph.Graph, a, b int64) float64 {
	to, w := adjacent(g, a)
	if k := slices.Index(to, b); k >= 0 {
		return w[k]
	}
	return 0
}

// neighbors returns id's neighbour ids in ascending order.
func neighbors(g *graph.Graph, id int64) []int64 {
	to, _ := adjacent(g, id)
	slices.Sort(to)
	return to
}

// graphsBitIdentical compares what the feature columns can see of a graph:
// vertex numbering, every adjacency list in order with its weights bit for
// bit (PageRank and label propagation fold them in that order), and the
// PageRank / label-propagation outputs themselves.
func graphsBitIdentical(t *testing.T, want, got *graph.Graph, seeds map[int64]int, context string) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: graph presence differs: want nil=%v, got nil=%v", context, want == nil, got == nil)
	}
	if want == nil {
		return
	}
	if !slices.Equal(want.IDs(), got.IDs()) {
		t.Fatalf("%s: vertex order differs (%d vs %d vertices)", context, want.NumVertices(), got.NumVertices())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", context, err)
	}
	for i, id := range want.IDs() {
		wto, ww := want.Adj(i)
		gto, gw := got.Adj(i)
		if !slices.Equal(wto, gto) {
			t.Fatalf("%s: adjacency of %d: %v vs %v", context, id, wto, gto)
		}
		for k := range ww {
			if math.Float64bits(ww[k]) != math.Float64bits(gw[k]) {
				t.Fatalf("%s: weight %d-%d: %v vs %v", context, id, want.IDs()[wto[k]], ww[k], gw[k])
			}
		}
	}
	wpr, gpr := want.PageRank(graph.PageRankOptions{}), got.PageRank(graph.PageRankOptions{})
	wlp := want.LabelPropagation(seeds, 2, graph.LabelPropOptions{})
	glp := got.LabelPropagation(seeds, 2, graph.LabelPropOptions{})
	for i, id := range want.IDs() {
		if math.Float64bits(wpr[i]) != math.Float64bits(gpr[i]) {
			t.Fatalf("%s: pagerank of %d: %v vs %v", context, id, wpr[i], gpr[i])
		}
		if math.Float64bits(wlp[2*i+1]) != math.Float64bits(glp[2*i+1]) {
			t.Fatalf("%s: label propagation of %d: %v vs %v", context, id, wlp[2*i+1], glp[2*i+1])
		}
	}
}

// finalizeWorkers are the worker counts every fold comparison finalizes at.
var finalizeWorkers = []int{1, 2, 8}

// shardFeed is one Feed call: a table set and the shard it goes to.
type shardFeed struct {
	shard int
	tbl   Tables
}

// foldBoth feeds the same per-shard tables to the map oracle and to the
// production fold and compares all three graphs, finalizing the production
// fold at every finalizeWorkers count.
func foldBoth(t *testing.T, parts []Tables, win Window, days int, isCustomer func(int64) bool, seeds map[int64]int, context string) *GraphAccumulator {
	t.Helper()
	feeds := make([]shardFeed, len(parts))
	for s, tbl := range parts {
		feeds[s] = shardFeed{s, tbl}
	}
	return foldFeeds(t, len(parts), feeds, win, days, isCustomer, seeds, context)
}

// foldFeeds is foldBoth over an explicit sequence of Feed calls, in which
// a shard may be fed more than once.
func foldFeeds(t *testing.T, shards int, feeds []shardFeed, win Window, days int, isCustomer func(int64) bool, seeds map[int64]int, context string) *GraphAccumulator {
	t.Helper()
	want := newMapAccumulator(shards, AllGroups())
	got := NewGraphAccumulator(shards, AllGroups())
	for _, f := range feeds {
		want.Feed(f.shard, f.tbl, win, days, isCustomer)
		got.Feed(f.shard, f.tbl, win, days, isCustomer)
	}
	wantCall, wantMsg, wantCooc := want.Finalize()
	for _, workers := range finalizeWorkers {
		got.Workers = workers
		gotCall, gotMsg, gotCooc := got.Finalize()
		ctx := fmt.Sprintf("%s workers=%d", context, workers)
		graphsBitIdentical(t, wantCall, gotCall, seeds, ctx+": call")
		graphsBitIdentical(t, wantMsg, gotMsg, seeds, ctx+": message")
		graphsBitIdentical(t, wantCooc, gotCooc, seeds, ctx+": co-occurrence")
	}
	return got
}

func TestGraphFoldMatchesMapOracle(t *testing.T) {
	months, cfg := simOnce(t)
	tbl := monthTables(t, months)
	days := cfg.DaysPerMonth
	seeds := seedMap(GraphFeatureInput{
		PrevChurners: ChurnersOf(months[1].Truth),
		StableSample: StableOf(months[1].Truth, 10),
	})
	for _, win := range []Window{MonthWindow(2, days), {FromAbs: 1, ToAbs: 2 * days}} {
		for _, shards := range []int{1, 4, 16} {
			foldBoth(t, shardTables(tbl, shards), win, days, synth.IsCustomerID, seeds,
				fmt.Sprintf("window %d-%d shards=%d", win.FromAbs, win.ToAbs, shards))
		}
	}
}

// TestGraphFoldEdgeCases drives the fold's corner cases with hand-made rows
// spread over three shards, the first fed twice, against the oracle and
// against expected weights.
func TestGraphFoldEdgeCases(t *testing.T) {
	const base = int64(1_000_000)
	gone := int64(7) // a previous churner outside the id universe
	isCustomer := func(id int64) bool { return synth.IsCustomerID(id) || id == gone || id < 0 }
	win := MonthWindow(1, 30)

	newTables := func() Tables {
		return Tables{
			Calls:     table.NewTable(synth.CallsSchema),
			Messages:  table.NewTable(synth.MessagesSchema),
			Locations: table.NewTable(synth.LocationsSchema),
		}
	}
	// parts[2] is shard 0's second Feed: its rows continue shard 0's sums
	// and cubes. parts[3] is shard 2.
	parts := []Tables{newTables(), newTables(), newTables(), newTables()}
	call := func(part int, from, to int64, dur float64) {
		t.Helper()
		err := parts[part].Calls.AppendRow(from, to, int64(1), int64(5), dur,
			int64(synth.CallLocalInner), int64(1), int64(synth.OpSelf), int64(1),
			int64(0), 1.0, 4.0, 4.0, 4.0, int64(0), int64(0), int64(0),
			int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
		if err != nil {
			t.Fatal(err)
		}
	}
	fix := func(part int, id, day, slot, cell int64) {
		t.Helper()
		if err := parts[part].Locations.AppendRow(id, int64(1), day, slot, cell, int64(0), 31.0, 121.0); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c, d := base+1, base+2, base+3, base+4
	call(0, a, a, 50) // self-call: no edge, no vertex
	// One edge whose weight is order-sensitive in floating point: the forward
	// direction fed through every shard and continued by shard 0's second
	// Feed, the reverse through one. Non-finite durations among them are no
	// calls.
	call(0, a, b, 0.1)
	call(0, a, b, 0.2)
	call(0, a, b, math.NaN())
	call(0, a, b, 0.3)
	call(1, a, b, 0.6)
	call(1, a, b, math.Inf(1))
	call(1, a, b, 0.9)
	call(1, b, a, 0.7)
	call(1, b, a, 0.4)
	call(2, a, b, 0.01)
	call(3, a, b, 0.1)
	call(1, d, c, 12)        // seen only in the reverse (max-id → min-id) direction
	call(1, c, gone, 33)     // a previous churner outside the universe is a vertex
	call(0, a, 5_000_001, 9) // off-net peer: dropped
	call(0, c, d, math.NaN())
	call(1, d, a, math.Inf(1)) // the only row of d → a: no edge
	call(0, -5, -3, 4)         // negative ids
	call(2, -3, -5, 0.5)

	// One cube with cooccurrenceCubeCap+10 members alternating between the
	// shards: only the cooccurrenceCubeCap smallest ids survive the merge.
	for k := int64(0); k < cooccurrenceCubeCap+10; k++ {
		fix(int(k%2), base+100+k, 3, 4, 77)
	}
	// Repeated fixes of one customer in one cube, in both shards' rows.
	fix(0, a, 1, 0, 7)
	fix(0, a, 1, 0, 7)
	fix(0, c, 1, 0, 7)
	fix(0, a, 1, 0, 7)
	fix(0, gone, 1, 0, 7)
	// One pair sharing three cubes, fixes split across the shards.
	for k := int64(0); k < 3; k++ {
		fix(int(k%2), b, 2, k, 8)
		fix(int(1-k%2), d, 2, k, 8)
	}
	// A customer whose only co-member has a smaller id: no edge of its own
	// to emit, only the one the smaller customer emits to it.
	e := base + 5
	fix(1, b, 4, 2, 9)
	fix(0, e, 4, 2, 9)
	// A single-member cube: no edge, no vertex.
	lone := base + 6
	fix(1, lone, 5, 0, 1)
	// A chain of two-member cubes over enough ids that the co-occurrence
	// finalize splits customers into several chunks, with edges crossing
	// the chunk boundaries.
	for k := int64(0); k < 150; k++ {
		fix(int(k%2), base+300+k, 6, k, 3)
		fix(int(1-k%2), base+301+k, 6, k, 3)
	}
	// Cubes of exactly cooccurrenceCubeCap and cooccurrenceCubeCap+1
	// distinct members, every member seen twice and some in both shards
	// and in shard 0's second Feed: the cap counts distinct ids.
	for k := int64(0); k <= cooccurrenceCubeCap; k++ {
		for rep := int64(0); rep < 2; rep++ {
			part := int((k + rep) % 3)
			if k < cooccurrenceCubeCap {
				fix(part, base+500+k, 9, 0, 5)
			}
			fix(part, base+600+k, 9, 1, 5)
		}
	}
	// Cube keys at the ends of int64, and negative customer ids.
	x, y := base+700, base+701
	fix(0, x, 10, math.MinInt64, math.MaxInt64)
	fix(1, y, 10, math.MinInt64, math.MaxInt64)
	fix(2, x, 10, math.MaxInt64, math.MinInt64)
	fix(1, y, 10, math.MaxInt64, math.MinInt64)
	fix(0, -9, 11, -1, -1)
	fix(1, -8, 11, -1, -1)
	fix(1, x, 11, -1, -1)
	// Both ways of emitting a customer's edges (denseTally). dense's
	// larger co-members are adjacent ranks (the scan); sparse has two,
	// far apart in rank, met far one first (the sort, which must put the
	// near one first).
	dense, sparse := base+200, base+60
	for k := int64(0); k < 10; k++ {
		fix(int(k%2), dense+k, 12, 0, 1)
	}
	fix(0, sparse, 12, 1, 1)
	fix(0, base+449, 12, 1, 1)
	fix(0, sparse, 12, 2, 1)
	fix(0, sparse+1, 12, 2, 1)

	feeds := []shardFeed{{0, parts[0]}, {1, parts[1]}, {0, parts[2]}, {2, parts[3]}}
	acc := foldFeeds(t, 3, feeds, win, 30, isCustomer, map[int64]int{a: 1, c: 0}, "edge cases")
	cg, mg, og := acc.Finalize()
	if slices.Contains(cg.IDs(), 5_000_001) || edgeWeight(cg, a, a) != 0 {
		t.Error("self-call or off-net peer reached the call graph")
	}
	x1, x2, x3, z, y1, y2, q, r1, r2 := 0.1, 0.2, 0.3, 0.01, 0.6, 0.9, 0.1, 0.7, 0.4
	if got, want := edgeWeight(cg, a, b), ((x1+x2+x3+z)+(y1+y2)+q)+(r1+r2); got != want {
		t.Errorf("w(a,b) = %v, want (shard sums in shard order) forward + reverse = %v", got, want)
	}
	if got := edgeWeight(cg, c, d); got != 12 {
		t.Errorf("w(c,d) = %v, want 12 from the reverse-only rows", got)
	}
	if got := edgeWeight(cg, c, gone); got != 33 {
		t.Errorf("w(c,previous churner) = %v, want 33", got)
	}
	if edgeWeight(cg, a, d) != 0 {
		t.Error("an infinite call made an edge")
	}
	if got := edgeWeight(cg, -5, -3); got != 4.5 {
		t.Errorf("w(-5,-3) = %v, want 4.5", got)
	}
	for i, pr := range cg.PageRank(graph.PageRankOptions{}) {
		if math.IsNaN(pr) || math.IsInf(pr, 0) {
			t.Fatalf("call-graph PageRank of %d is %v", cg.IDs()[i], pr)
		}
	}
	if mg.NumVertices() != 0 {
		t.Errorf("empty messages table built %d vertices", mg.NumVertices())
	}
	if got := edgeWeight(og, base+100, base+99+cooccurrenceCubeCap); got != 1 {
		t.Errorf("cooccurrenceCubeCap smallest cube members: w = %v, want 1", got)
	}
	if slices.Contains(og.IDs(), base+100+cooccurrenceCubeCap) {
		t.Error("a crowded cube kept more than cooccurrenceCubeCap members")
	}
	if got := edgeWeight(og, a, c); got != 1 {
		t.Errorf("repeated fixes: w(a,c) = %v, want 1", got)
	}
	if got := edgeWeight(og, gone, a); got != 1 {
		t.Errorf("previous churner in a cube: w = %v, want 1", got)
	}
	if got := edgeWeight(og, b, d); got != 3 {
		t.Errorf("three shared cubes: w(b,d) = %v, want 3", got)
	}
	if got := edgeWeight(og, b, e); got != 1 || len(neighbors(og, e)) != 1 {
		t.Errorf("smaller-id co-member only: w(b,e) = %v, neighbours %v", got, neighbors(og, e))
	}
	if slices.Contains(og.IDs(), lone) {
		t.Error("a single-member cube made a vertex")
	}
	if got := edgeWeight(og, base+300, base+450); len(neighbors(og, base+375)) != 2 || got != 0 {
		t.Errorf("chain: neighbours of a middle link %v, w(ends) = %v", neighbors(og, base+375), got)
	}
	if n := len(neighbors(og, base+500+cooccurrenceCubeCap-1)); n != cooccurrenceCubeCap-1 {
		t.Errorf("a cube of exactly cooccurrenceCubeCap members: last member has %d neighbours", n)
	}
	if slices.Contains(og.IDs(), base+600+cooccurrenceCubeCap) || edgeWeight(og, base+600, base+599+cooccurrenceCubeCap) != 1 {
		t.Error("a cube of cooccurrenceCubeCap+1 members did not drop exactly its largest")
	}
	if got := edgeWeight(og, x, y); got != 2 {
		t.Errorf("cubes at the ends of int64: w(x,y) = %v, want 2", got)
	}
	if edgeWeight(og, -9, -8) != 1 || edgeWeight(og, -9, x) != 1 {
		t.Error("negative ids lost their cube")
	}

	// Both emission branches ran, over the ranks finalize gives the merged
	// partial's ids.
	ids := slices.Clone(acc.mergedCubes().ids)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	scanned := func(u int64) bool {
		var above []int64
		for _, v := range neighbors(og, u) {
			if v > u {
				above = append(above, v)
			}
		}
		first, _ := slices.BinarySearch(ids, above[0])
		last, _ := slices.BinarySearch(ids, above[len(above)-1])
		return denseTally(len(above), last-first+1)
	}
	if len(neighbors(og, dense)) != 9 || !scanned(dense) {
		t.Errorf("dense customer: neighbours %v, scanned %v", neighbors(og, dense), scanned(dense))
	}
	if !slices.Equal(neighbors(og, sparse), []int64{sparse + 1, base + 449}) || scanned(sparse) {
		t.Errorf("sparse customer: neighbours %v, scanned %v", neighbors(og, sparse), scanned(sparse))
	}

	// Finalize does not consume the partials.
	cg2, mg2, og2 := acc.Finalize()
	seeds := map[int64]int{a: 1, c: 0}
	graphsBitIdentical(t, cg, cg2, seeds, "second Finalize: call")
	graphsBitIdentical(t, mg, mg2, seeds, "second Finalize: message")
	graphsBitIdentical(t, og, og2, seeds, "second Finalize: co-occurrence")

	// Empty tables everywhere: three empty graphs, not nil and not a panic.
	empty := foldBoth(t, []Tables{newTables(), newTables()}, win, 30, isCustomer, nil, "empty")
	if g, _, _ := empty.Finalize(); g == nil || g.NumVertices() != 0 {
		t.Error("empty tables did not produce an empty call graph")
	}
}
