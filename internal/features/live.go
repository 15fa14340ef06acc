package features

import (
	"fmt"
	"math"
	"slices"

	"telcochurn/internal/parallel"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// The maintainer's live state (NewMaintainer starts it) is what a
// serving-frame build over the maintained tables would otherwise recompute
// from every raw row: every universe customer's per-customer columns and
// the F4–F6 graph fold. Both are filled once over the tables and kept
// current as events are applied, so a build from a Capture reads no raw
// row and re-folds no customer; only the cross-customer work is left to
// it.
//
// Why a Capture's frame is the rebuild's, bit for bit:
//
//   - The kept columns are perCustomerFrame over the whole tables, and a
//     customer's row is replaced by Refold's re-fold of that customer's
//     posting lists, which equals it (see incremental.go).
//   - The graph fold observes the tables' rows in table order — the base
//     rows, then every applied event row in the order Apply appends it —
//     so each direction sum adds the same values in the same order as a
//     fold over the merged partition. It filters no customer: the
//     universe-or-previous-churner predicate depends on the truth a build
//     reads, so Capture applies it while reducing (keptSums,
//     liveCubes.reduce), which gives the partials a filtering Feed would
//     have, and leaves the fold as it was.
//   - Every build counts every universe customer, so a cube's capped
//     members never include a universe customer above its
//     cooccurrenceCubeCap smallest: the fold drops those as it goes
//     (liveCubes), and with them any other customer above that bound.

// liveState is the state startLive starts. Guarded by the maintainer's mu.
type liveState struct {
	// groups are the kept per-customer groups; complaints and search their
	// fitted topic featurizers.
	groups             GroupSet
	complaints, search *TopicFeaturizer
	// kept holds every universe customer's columns of groups. A row is
	// replaced, never written into, when its customer is re-folded, so a
	// Capture's copy of the row slices never changes under it.
	kept *Frame
	// stale holds the universe customers Apply touched that no Refold has
	// re-folded since; Capture re-folds them first.
	stale map[int64]struct{}
	// graphs is the F4–F6 fold, nil when no graph group is kept.
	graphs *graphFold
	// mem is what the last capture's graphs were built in, for the next
	// capture to build in; a capture being built holds it instead. The
	// first capture, the one a serving boot builds from,
	// hands nothing back: a daemon that serves reads and never refreshes
	// would keep it resident for nothing. captured is set by that one.
	mem      graphMemory
	captured bool
}

// startLive starts the maintainer's live state for a serving schema:
// groups' per-customer columns (F1–F3, F7, F8; complaints and search must
// be fitted for F7 / F8) over every universe customer, and the fold of its
// graph groups (F4–F6) over the tables as they stand, the two built side
// by side on up to workers goroutines. From then on Apply feeds the fold
// each event row it appends and marks the customers it touches stale until
// Refold re-folds them. F9 in groups is ignored: it is applied to the
// assembled frame.
func (m *Maintainer) startLive(groups GroupSet, complaints, search *TopicFeaturizer, workers int) error {
	l := &liveState{groups: groups & (BaseGroups | TopicGroups), complaints: complaints, search: search, stale: map[int64]struct{}{}}
	var err error
	parallel.Do(workers,
		func() {
			if g := groups & GraphGroups; g != 0 {
				l.graphs = newGraphFold(g, m.tables, m.win, m.days, func(id int64) bool {
					_, ok := m.universe[id]
					return ok
				})
			}
		},
		func() {
			if l.kept, err = perCustomerFrame(m.tables, nil, m.win, m.days, workers, l.groups, complaints, search); err != nil {
				return
			}
			// Rows of their own: a re-folded row replaces one, and a slab
			// would stay whole while any of its rows does.
			for r, row := range l.kept.x {
				l.kept.x[r] = slices.Clone(row)
			}
		})
	if err != nil {
		return fmt.Errorf("features: keep the serving columns: %w", err)
	}
	m.live = l
	return nil
}

// KeptNames returns the names of the kept per-customer columns, in the
// order Refold's frames hold them.
func (m *Maintainer) KeptNames() []string { return m.live.kept.Names() }

// Refold rebuilds the listed customers' kept columns from the maintained
// tables and installs them: one frame with a row per listed universe
// customer (CustomerFrames over the kept groups), each row then also the
// customer's kept row.
func (m *Maintainer) Refold(ids []int64) (*Frame, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.refold(ids)
}

// refold is Refold with mu held.
func (m *Maintainer) refold(ids []int64) (*Frame, error) {
	l := m.live
	f, err := m.customerFrames(ids, l.groups, l.complaints, l.search)
	if err != nil {
		return nil, err
	}
	for r, id := range f.ids {
		// A row of its own, so the frame's slab goes with the frame.
		l.kept.x[l.kept.index[id]] = slices.Clone(f.x[r])
		delete(l.stale, id)
	}
	return f, nil
}

// Captured is the live state at one moment, ready to build from: the kept
// columns and the graph fold reduced to the partials the build's customers
// leave. Later Apply and Refold calls never reach it, and building from it
// reads no raw row.
type Captured struct {
	kept *Frame
	in   GraphFeatureInput
	acc  *GraphAccumulator // nil when no graph group is kept
	// mem is the memory the graphs build in, taken from the live state;
	// back is where it goes once the graphs are scored (nil: nowhere).
	mem  graphMemory
	m    *Maintainer
	back *liveState
}

// Capture re-folds any stale customer, then takes the kept columns (the
// row slices, not the values) and reduces the graph fold to the partials
// a Feed over the maintained tables would leave with the universe and in's
// previous churners as its customers, on up to workers goroutines. The
// fold itself is left as it was. The capture also takes the memory the
// last capture's graphs were built in, so its own build reuses it.
func (m *Maintainer) Capture(in GraphFeatureInput, workers int) (*Captured, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.live
	if len(l.stale) > 0 {
		ids := make([]int64, 0, len(l.stale))
		for id := range l.stale {
			ids = append(ids, id)
		}
		if _, err := m.refold(ids); err != nil {
			return nil, err
		}
	}
	k := l.kept
	c := &Captured{kept: &Frame{ids: k.ids, index: k.index, names: k.names, group: k.group, x: slices.Clone(k.x)}, in: in,
		mem: l.mem, m: m}
	l.mem = graphMemory{}
	if l.captured {
		c.back = l
	}
	l.captured = true
	if l.graphs != nil {
		customers := newKeyIndex(hashID, len(k.ids)+len(in.PrevChurners))
		for _, id := range k.ids {
			customers.of(id)
		}
		for id := range in.PrevChurners {
			customers.of(id)
		}
		c.acc = l.graphs.reduce(customers.has, workers)
	}
	return c, nil
}

// Frame builds the serving frame from the capture: the graphs finalized
// and scored by PageRank and label propagation seeded from the capture's
// input, then laid with the kept columns into one frame by the assembly
// step BuildShardedFrame merges through, on up to workers goroutines. It
// is Float64bits-equal to BuildShardedFrame over the maintained tables
// with the kept groups and the graph groups. The graphs are built in the
// memory the capture took, which goes back to the live state once they
// are scored, for the next capture (unless this was the first capture
// of the maintainer).
func (c *Captured) Frame(workers int) *Frame {
	uni := NewFrame(c.kept.ids)
	var graphs func()
	if c.acc != nil {
		graphs = func() {
			c.acc.Workers = workers
			g, mem := c.acc.finalize(c.mem)
			c.mem = graphMemory{} // a second Frame builds fresh
			scoreGraphsInto(uni, g, c.in, workers)
			if c.back != nil {
				c.m.mu.Lock()
				c.back.mem = mem
				c.m.mu.Unlock()
			}
		}
	}
	assemble(uni, []*Frame{c.kept}, graphs)
	return uni
}

// graphFold is the F4–F6 fold of one maintained month, open for more rows:
// every call, message and sighting the graphs count, whoever the peer or
// the sighted customer is.
type graphFold struct {
	win       Window
	days      int
	call, msg *edgeFold  // nil unless the group is kept
	cooc      *liveCubes // nil unless F6 is kept
}

// newGraphFold starts the fold of groups' graphs over tbl, whose customer
// snapshot universe admits.
func newGraphFold(groups GroupSet, tbl Tables, win Window, daysPerMonth int, universe func(int64) bool) *graphFold {
	g := &graphFold{win: win, days: daysPerMonth}
	if groups.Has(F4CallGraph) {
		g.call = newEdgeFold(nil)
	}
	if groups.Has(F5MessageGraph) {
		g.msg = newEdgeFold(nil)
	}
	if groups.Has(F6CooccurrenceGraph) {
		g.cooc = &liveCubes{index: newKeyIndex(hashCube, 0), universe: universe}
	}
	g.feed(synth.TableCalls, tbl.Calls)
	g.feed(synth.TableMessages, tbl.Messages)
	g.feed(synth.TableLocations, tbl.Locations)
	return g
}

// feed folds the rows of the named raw table in order; a table no kept
// graph reads is ignored.
func (g *graphFold) feed(name string, t *table.Table) {
	switch {
	case name == synth.TableCalls && g.call != nil:
		feedCalls(g.call, t, g.win, g.days, nil)
	case name == synth.TableMessages && g.msg != nil:
		feedMessages(g.msg, t, g.win, g.days, nil)
	case name == synth.TableLocations && g.cooc != nil:
		feedLocations(g.cooc, t, g.win, g.days, nil)
	}
}

// reduce returns a one-shard accumulator holding the partials a Feed with
// keep as its isCustomer would have left, the graphs reduced side by side
// on up to workers goroutines. keep must admit the whole universe. The
// fold is only read.
func (g *graphFold) reduce(keep func(int64) bool, workers int) *GraphAccumulator {
	a := &GraphAccumulator{parts: make([]graphPartials, 1)}
	a.wantCall, a.wantMsg, a.wantCooc = g.call != nil, g.msg != nil, g.cooc != nil
	p := &a.parts[0]
	parallel.Do(workers,
		func() {
			if g.cooc != nil {
				p.cooc = g.cooc.reduce(keep)
			}
		},
		func() {
			if g.call != nil {
				p.call = keptSums(g.call, keep)
			}
		},
		func() {
			if g.msg != nil {
				p.msg = keptSums(g.msg, keep)
			}
		})
	return a
}

// liveCubes is the co-occurrence fold of a maintained month, pruned as it
// goes. Per cube it holds the cooccurrenceCubeCap smallest distinct
// universe customers sighted there (inside) and the distinct other
// customers sighted there below the largest of a full inside (outside).
// A build counts every universe customer and, of the others, the previous
// churners, so a cube's capped members are always among these.
type liveCubes struct {
	index           *keyIndex[cube] // cubes in first-appearance order
	inside, outside [][]int64       // per cube, ascending
	universe        func(int64) bool
}

func (f *liveCubes) add(k cube, id int64) {
	c := f.index.of(k)
	if int(c) == len(f.inside) {
		f.inside, f.outside = append(f.inside, nil), append(f.outside, nil)
	}
	in := f.inside[c]
	full := len(in) == cooccurrenceCubeCap
	switch {
	case f.universe(id):
		if in = insertSorted(in, id, cooccurrenceCubeCap); len(in) == cooccurrenceCubeCap {
			// The bound only falls: drop the others now above it.
			out := f.outside[c]
			f.outside[c] = out[:sortedBelow(out, in[len(in)-1])]
		}
		f.inside[c] = in
	case !full || id < in[len(in)-1]:
		f.outside[c] = insertSorted(f.outside[c], id, math.MaxInt)
	}
}

// insertSorted inserts id into the ascending, distinct ids unless it is
// there already, keeping the limit smallest.
func insertSorted(ids []int64, id int64, limit int) []int64 {
	i, found := slices.BinarySearch(ids, id)
	if found || i >= limit {
		return ids
	}
	if len(ids) == limit {
		ids = ids[:limit-1]
	}
	return slices.Insert(ids, i, id)
}

// sortedBelow returns how many of the ascending ids are below bound.
func sortedBelow(ids []int64, bound int64) int {
	i, _ := slices.BinarySearch(ids, bound)
	return i
}

// reduce returns the cube set a fold of the sightings keep admits would
// reduce to: each cube's cooccurrenceCubeCap smallest kept members,
// ascending. keep admits every inside member.
func (f *liveCubes) reduce(keep func(int64) bool) cubeSet {
	n := len(f.inside)
	s := cubeSet{cubes: slices.Clone(f.index.keys), start: make([]int32, n+1)}
	size := 0
	for c := range n {
		size += min(len(f.inside[c])+len(f.outside[c]), cooccurrenceCubeCap)
	}
	s.ids = make([]int64, 0, size)
	for c := range n {
		in, out := f.inside[c], f.outside[c]
		for k := 0; k < cooccurrenceCubeCap; k++ {
			for len(out) > 0 && !keep(out[0]) {
				out = out[1:]
			}
			switch {
			case len(out) > 0 && (len(in) == 0 || out[0] < in[0]):
				s.ids, out = append(s.ids, out[0]), out[1:]
			case len(in) > 0:
				s.ids, in = append(s.ids, in[0]), in[1:]
			}
		}
		s.start[c+1] = int32(len(s.ids))
	}
	return s
}

// keptSums returns the reduced sums of the observations whose peer keep
// admits. A direction's observations share their peer (lo → hi's is hi),
// so the direction stays or goes whole, and an edge goes when neither
// does. The feeds observe positive weights only, so a zero sum is a
// direction never observed.
func keptSums(f *edgeFold, keep func(int64) bool) []edgeSum {
	out := make([]edgeSum, 0, len(f.w))
	for i, k := range f.index.keys {
		w := f.w[i]
		if w[0] != 0 && !keep(k[1]) {
			w[0] = 0
		}
		if w[1] != 0 && !keep(k[0]) {
			w[1] = 0
		}
		if w != [2]float64{} {
			out = append(out, edgeSum{lo: k[0], hi: k[1], w: w})
		}
	}
	sortEdgeSums(out)
	return out
}
