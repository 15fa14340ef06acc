package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"telcochurn/internal/core"
	"telcochurn/internal/faults"
	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
	"telcochurn/internal/tree"
)

// FuzzPipelineIdentity is the bit-identity contract as one differential:
// one world and seed give Float64bits-identical frames, scores and
// degradation masks on every path. A case draws a world (seed, 40–200
// customers, 3–4 months), a scoring window of its last month or two, a
// feature-group set (F1 plus any of F2–F9), a
// shard count in 1–16, a worker count in {1, 2, 8}, at most one unreadable
// table (truth included) and up to 300 streamed events over at most 25
// customers, one of them possibly outside the universe.
//
// The reference is the in-memory landing, built whole-window by a pipeline
// fitted at one worker. Against it, at the drawn worker count: the fit
// itself (artifact bytes, fitted on the sharded landing); BuildFrame,
// BuildFrameSharded and BuildFrameDegraded over a plain and a sharded
// warehouse landing, bare and through a zero-rate faults.Wrap under a
// RetrySource; Predict, PredictSharded, PredictDegraded, and PredictVectors
// after a Save/Load round trip. With a table down, every strict path fails
// with the reader's error and every degraded path imputes the same frame
// under the same mask — with a one-month window, the frame a capture of an
// Incremental over the landing builds too. With nothing down and a
// one-month window, streamed events go through the sharded landing's event
// log and an Incremental in two batches: Refresh and RefreshAll rows, and
// the frames captures build, equal the rebuild after each
// EventLog.MergeInto — graph columns excepted in refreshed rows, which keep
// their snapshot values until the next full build — and a capture taken
// after the first batch still builds that batch's merge after the second.
//
// The corpus under testdata/fuzz runs in tier-1; make chaos fuzzes for 60 s.
func FuzzPipelineIdentity(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, customers, months, groups, shards, workers, down, events, streamed uint16) {
		c := identityCase{
			world:    synth.DefaultConfig(),
			groups:   features.GroupSetOf(features.F1Baseline) | features.GroupSet(groups)&allGroups,
			shards:   1 + int(shards%16),
			workers:  []int{1, 2, 8}[workers%3],
			events:   int(events % 301),
			streamed: int(streamed % 26),
			outside:  streamed/26%2 == 1,
		}
		c.world.Seed = seed
		c.world.Customers = 40 + int(customers%161)
		c.world.Months = 3 + int(months%2)
		c.span = 1 + int(months/2%2)
		c.world.BurnInMonths = 1
		if down%2 == 1 {
			c.down = downTables[int(down/2)%len(downTables)]
		}
		c.check(t)
	})
}

var allGroups = features.GroupSetOf(features.AllGroups()...)

// downTables are the tables a case may make unreadable: the nine raw
// tables and the truth feed the graph groups seed from.
var downTables = []string{
	synth.TableCalls, synth.TableMessages, synth.TableRecharges, synth.TableBilling,
	synth.TableCustomers, synth.TableComplaints, synth.TableWeb, synth.TableSearch,
	synth.TableLocations, synth.TableTruth,
}

type identityCase struct {
	world    synth.Config
	groups   features.GroupSet
	span     int // months in the scoring window
	shards   int
	workers  int
	down     string // "" = every table readable
	events   int
	streamed int  // customers the events fall on
	outside  bool // one more event customer outside the universe
}

func (c identityCase) String() string {
	return fmt.Sprintf("seed=%d customers=%d months=%d span=%d groups=%s shards=%d workers=%d down=%q events=%d over %d(+outside=%v)",
		c.world.Seed, c.world.Customers, c.world.Months, c.span, c.groups, c.shards, c.workers, c.down, c.events, c.streamed, c.outside)
}

// landing is one source a case builds and scores through.
type landing struct {
	name string
	src  core.Source
}

// land writes the simulated months into a fresh warehouse at the given
// shard count (1 = the plain layout).
func land(t *testing.T, sim []*synth.MonthData, shards int) (*store.Warehouse, *store.ShardedWarehouse) {
	t.Helper()
	wh := tempWarehouse(t)
	wh.SetSync(store.SyncPolicy{Mode: store.SyncOff})
	sw, err := wh.Sharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, md := range sim {
		for name, tb := range md.Tables() {
			if err := sw.WritePartition(name, md.Month, tb); err != nil {
				t.Fatal(err)
			}
		}
	}
	return wh, sw
}

func (c identityCase) check(t *testing.T) {
	days := c.world.DaysPerMonth
	month := c.world.Months - 1 // scored; month-1 trains, labeled by month
	win := features.Window{FromAbs: features.AbsDay(month-c.span+1, 1, days), ToAbs: month * days}
	sim := synth.Simulate(c.world)
	memory := core.NewMemorySource(sim, days)
	plainWH, _ := land(t, sim, 1)
	plain := core.NewWarehouseSource(plainWH, days)
	shardedWH, sw := land(t, sim, c.shards)
	sharded := core.NewShardedWarehouseSource(sw, days)

	// The fit: once at one worker on the memory landing, once at the
	// drawn count on the sharded one, to the same artifact bytes.
	cfg := core.Config{
		Groups:           c.groups.Groups(),
		Forest:           tree.ForestConfig{NumTrees: 3, MinLeafSamples: 5},
		TopicK:           3,
		SecondOrderPairs: 4,
		Seed:             c.world.Seed,
		Workers:          1,
	}
	train := []core.WindowSpec{core.MonthSpec(month-1, days)}
	ref, refErr := core.Fit(memory, train, cfg)
	cfg.Workers = c.workers
	p, err := core.Fit(sharded, train, cfg)
	if refErr != nil || err != nil {
		// A world too small to fit (one class only, say) fails the same
		// way on both.
		if fmt.Sprint(refErr) != fmt.Sprint(err) {
			t.Fatalf("%v: fit at one worker: %v; at %d on %d shards: %v", c, refErr, c.workers, c.shards, err)
		}
		return
	}
	if !bytes.Equal(saved(t, ref), saved(t, p)) {
		t.Fatalf("%v: artifact bytes differ between one worker on memory and %d on %d shards", c, c.workers, c.shards)
	}

	// Zero-rate faults under a retrying source: they fire nothing, retry
	// nothing and change no bit.
	inj := faults.New(faults.Config{Seed: c.world.Seed})
	var retries atomic.Int64
	decorate := func(src core.Source) core.Source {
		return core.NewRetrySource(faults.Wrap(src, inj), core.RetryConfig{
			Seed: c.world.Seed, Sleep: noSleep,
			OnRetry: func(string, int, time.Duration, error) { retries.Add(1) },
		}).Source
	}
	down := func(src core.Source) core.Source {
		if c.down == "" {
			return src
		}
		return failing(src, c.down, dead)
	}
	landings := []landing{
		{"warehouse", down(plain)},
		{"sharded", down(sharded)},
		{"sharded/faults+retry", decorate(down(sharded))},
		{"warehouse/faults+retry", decorate(down(plain))},
	}

	if c.down != "" {
		c.checkDown(t, ref, p, down(memory), landings, win)
	} else {
		want, err := ref.BuildFrame(memory, win, false, nil)
		if err != nil {
			t.Fatalf("%v: reference build: %v", c, err)
		}
		wantPreds, err := ref.Predict(memory, win)
		if err != nil {
			t.Fatalf("%v: reference predict: %v", c, err)
		}
		for _, l := range landings {
			what := fmt.Sprintf("%v: %s", c, l.name)
			got, err := p.BuildFrame(l.src, win, false, nil)
			if err != nil {
				t.Fatalf("%s: BuildFrame: %v", what, err)
			}
			sameFrame(t, what+" BuildFrame", got, want)
			got, stats, err := p.BuildFrameSharded(l.src, win)
			if err != nil || stats.Shards != max(l.src.NumShards(), 1) || stats.RawRows == 0 {
				t.Fatalf("%s: BuildFrameSharded: stats %+v, %v", what, stats, err)
			}
			sameFrame(t, what+" BuildFrameSharded", got, want)
			got, _, deg, err := p.BuildFrameDegraded(l.src, win)
			if err != nil || !deg.Empty() {
				t.Fatalf("%s: healthy BuildFrameDegraded: mask %s, %v", what, deg, err)
			}
			sameFrame(t, what+" BuildFrameDegraded", got, want)

			preds, err := p.Predict(l.src, win)
			if err != nil {
				t.Fatalf("%s: Predict: %v", what, err)
			}
			samePreds(t, what+" Predict", preds, wantPreds)
			if preds, _, err = p.PredictSharded(l.src, win); err != nil {
				t.Fatalf("%s: PredictSharded: %v", what, err)
			}
			samePreds(t, what+" PredictSharded", preds, wantPreds)
			if preds, _, err = p.PredictDegraded(l.src, win); err != nil {
				t.Fatalf("%s: PredictDegraded: %v", what, err)
			}
			samePreds(t, what+" PredictDegraded", preds, wantPreds)
		}

		// The served snapshot: precomputed shard by shard, through the
		// artifact, scored with no warehouse.
		if err := p.Precompute(sharded, win, month); err != nil {
			t.Fatalf("%v: Precompute: %v", c, err)
		}
		loaded, err := core.Load(bytes.NewReader(saved(t, p)))
		if err != nil {
			t.Fatalf("%v: Load: %v", c, err)
		}
		loaded.SetWorkers(c.workers)
		preds, err := loaded.PredictVectors()
		if err != nil {
			t.Fatalf("%v: PredictVectors: %v", c, err)
		}
		samePreds(t, fmt.Sprintf("%v: PredictVectors", c), preds, wantPreds)

		if c.span == 1 {
			c.checkStream(t, p, want, shardedWH, sharded, win)
		}
	}
	if n := inj.Counts(); n != (faults.Counts{}) || retries.Load() != 0 {
		t.Fatalf("%v: zero-rate faults fired %+v, %d retries", c, n, retries.Load())
	}
}

// checkDown holds the paths to one contract with c.down unreadable: strict
// builds fail with the reader's error wherever the table is read, degraded
// builds — and, over a one-month window, a capture of the maintained month
// over partial seeds — impute the reference's frame under its mask, and
// without a customer snapshot every path fails with ErrUniverseUnavailable.
func (c identityCase) checkDown(t *testing.T, ref, p *core.Pipeline, memory core.Source, landings []landing, win features.Window) {
	want, _, wantMask, err := ref.BuildFrameDegraded(memory, win)
	if c.down == synth.TableCustomers {
		if !errors.Is(err, features.ErrUniverseUnavailable) {
			t.Fatalf("%v: degraded build without customers: %v", c, err)
		}
	} else if err != nil {
		t.Fatalf("%v: reference degraded build: %v", c, err)
	}
	mask := features.DegradationOf([]string{c.down}, c.groups)
	if c.down == synth.TableTruth {
		mask = c.groups & features.GraphGroups
	}
	if !mask.Empty() && c.groups.Has(features.F9SecondOrder) {
		mask.Add(features.F9SecondOrder)
	}
	if err == nil && wantMask != mask {
		t.Fatalf("%v: degraded mask %s, want %s", c, wantMask, mask)
	}
	// Truth seeds only the graph groups; every raw table is read by
	// every strict load.
	strictFails := c.down != synth.TableTruth || !(c.groups & features.GraphGroups).Empty()
	var wantPreds *core.Predictions
	if err == nil {
		if wantPreds, _, err = ref.PredictDegraded(memory, win); err != nil {
			t.Fatalf("%v: reference degraded predict: %v", c, err)
		}
	}

	for _, l := range landings {
		what := fmt.Sprintf("%v: %s", c, l.name)
		_, errWhole := p.BuildFrame(l.src, win, false, nil)
		_, _, errSharded := p.BuildFrameSharded(l.src, win)
		_, errPredict := p.Predict(l.src, win)
		_, _, errPredictSharded := p.PredictSharded(l.src, win)
		for _, err := range []error{errWhole, errSharded, errPredict, errPredictSharded} {
			if strictFails && !errors.Is(err, fs.ErrNotExist) || !strictFails && err != nil {
				t.Fatalf("%s: strict path with %s down: %v", what, c.down, err)
			}
		}

		got, _, deg, err := p.BuildFrameDegraded(l.src, win)
		preds, _, errPreds := p.PredictDegraded(l.src, win)
		var live *features.Frame
		liveDeg, errLive := deg, error(nil)
		if c.span == 1 {
			live, liveDeg, errLive = captureFrame(p, l.src, win)
		}
		if c.down == synth.TableCustomers {
			if !errors.Is(err, features.ErrUniverseUnavailable) || !errors.Is(errPreds, features.ErrUniverseUnavailable) ||
				c.span == 1 && !errors.Is(errLive, features.ErrUniverseUnavailable) {
				t.Fatalf("%s: degraded paths without customers: %v, %v, %v", what, err, errPreds, errLive)
			}
			continue
		}
		if err != nil || errPreds != nil || errLive != nil {
			t.Fatalf("%s: degraded paths: %v, %v, %v", what, err, errPreds, errLive)
		}
		if deg != wantMask || liveDeg != wantMask {
			t.Fatalf("%s: BuildFrameDegraded mask %s, capture's %s, want %s", what, deg, liveDeg, wantMask)
		}
		sameFrame(t, what+" BuildFrameDegraded", got, want)
		samePreds(t, what+" PredictDegraded", preds, wantPreds)
		if live != nil {
			sameFrame(t, what+" capture", live, want)
		}
	}
}

// captureFrame loads the maintained month of win over src and builds the
// serving frame from a capture of it, over partial seeds.
func captureFrame(p *core.Pipeline, src core.Source, win features.Window) (*features.Frame, features.Degradation, error) {
	inc, err := core.NewIncremental(p, src, win)
	if err != nil {
		return nil, 0, err
	}
	seeds, err := inc.ReadSeeds(src, true)
	if err != nil {
		return nil, 0, err
	}
	captured, err := inc.Capture(seeds)
	if err != nil {
		return nil, 0, err
	}
	return captured.Frame()
}

// checkStream streams the case's events into the sharded landing's log and
// an Incremental over it in two batches, each merged into the partitions
// after it is folded, and holds the frames captures build, Refresh and
// RefreshAll rows to the rebuild after each merge. base is the window's
// frame before the events. It runs last: the merges rewrite the landing.
func (c identityCase) checkStream(t *testing.T, p *core.Pipeline, base *features.Frame, wh *store.Warehouse, src core.Source, win features.Window) {
	ids := base.IDs()
	targets := slices.Clone(ids[:min(c.streamed, len(ids))])
	const outside = 4_999_999
	if c.outside {
		targets = append(targets, outside)
	}
	events := synth.GenerateEvents(targets, win.SnapshotMonth(c.world.DaysPerMonth), c.world.DaysPerMonth, c.events, c.world.Seed)
	if len(events) == 0 {
		return
	}
	linkEvents(events, targets)
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.NewIncremental(p, src, win)
	if err != nil {
		t.Fatalf("%v: NewIncremental: %v", c, err)
	}
	affected, applied := map[int64]bool{}, 0
	// stream appends the first (half 0) or last half of every table's
	// events to the log and folds them into inc.
	stream := func(half int) {
		batch := map[string]*table.Table{}
		for name, ev := range events {
			n := ev.NumRows() / 2
			if rows := ev.Filter(func(i int) bool { return (i >= n) == (half == 1) }); rows.NumRows() > 0 {
				batch[name] = rows
			}
		}
		if len(batch) == 0 {
			return
		}
		if _, err := log.Append(batch); err != nil {
			t.Fatalf("%v: append: %v", c, err)
		}
		for _, name := range features.StreamableTables {
			if batch[name] == nil {
				continue
			}
			got, n, err := inc.Ingest(name, batch[name])
			if err != nil || n != batch[name].NumRows() {
				t.Fatalf("%v: ingest %s applied %d of %d rows: %v", c, name, n, batch[name].NumRows(), err)
			}
			applied += n
			for _, id := range got {
				affected[id] = true
			}
		}
	}
	// merge commits the log and rebuilds.
	merge := func() *features.Frame {
		t.Helper()
		if _, err := log.MergeInto(); err != nil {
			t.Fatalf("%v: merge: %v", c, err)
		}
		merged, _, err := p.BuildFrameSharded(src, win)
		if err != nil {
			t.Fatalf("%v: rebuild after merge: %v", c, err)
		}
		return merged
	}

	// capture takes inc's live state, seeded from src's truth; build builds
	// the serving frame from a capture.
	capture := func() *core.Captured {
		t.Helper()
		seeds, err := inc.ReadSeeds(src, false)
		if err != nil {
			t.Fatalf("%v: read seeds: %v", c, err)
		}
		cp, err := inc.Capture(seeds)
		if err != nil {
			t.Fatalf("%v: capture: %v", c, err)
		}
		return cp
	}
	build := func(what string, cp *core.Captured) *features.Frame {
		t.Helper()
		frame, deg, err := cp.Frame()
		if err != nil || deg != 0 {
			t.Fatalf("%v: frame from the %s capture: mask %s, %v", c, what, deg, err)
		}
		return frame
	}

	// The first batch is refreshed the way churnd's post refreshes it:
	// one RefreshAll over the touched customers, which installs their kept
	// columns. The second is not, so its capture re-folds them itself.
	stream(0)
	var touched []int64
	var touchedBases [][]float64
	for id := range affected {
		row, _ := base.Row(id)
		touched, touchedBases = append(touched, id), append(touchedBases, row)
	}
	if _, errs := inc.RefreshAll(touched, touchedBases); len(errs) > 0 && errors.Join(errs...) != nil {
		t.Fatalf("%v: RefreshAll after the first batch: %v", c, errors.Join(errs...))
	}
	earlyCap := capture()
	first := merge()
	sameFrame(t, fmt.Sprintf("%v: first batch's capture vs rebuild after merge", c), build("first batch's", earlyCap), first)
	sameFrame(t, fmt.Sprintf("%v: a second capture with no event between", c), build("repeated", capture()), first)
	stream(1)
	if affected[outside] || inc.Maintainer().Applied() != applied {
		t.Fatalf("%v: outside customer affected %v, %d rows applied, want %d", c, affected[outside], inc.Maintainer().Applied(), applied)
	}
	sameFrame(t, fmt.Sprintf("%v: first batch's capture after the second batch", c), build("first batch's", earlyCap), first)
	lateCap := capture()
	merged := merge()
	sameFrame(t, fmt.Sprintf("%v: second batch's capture vs rebuild after merge", c), build("second batch's", lateCap), merged)

	// Every customer at once, one of them twice and one outside the
	// universe; then each affected customer on its own.
	all := append(slices.Clone(ids), ids[0], outside)
	bases := make([][]float64, len(all))
	for i, id := range all {
		if bases[i], _ = base.Row(id); bases[i] == nil {
			bases[i], _ = base.Row(ids[0])
		}
	}
	rows, errs := inc.RefreshAll(all, bases)
	for i, err := range errs {
		if (all[i] == outside) != errors.Is(err, features.ErrNotInUniverse) || all[i] != outside && err != nil {
			t.Fatalf("%v: RefreshAll imsi %d: %v", c, all[i], err)
		}
	}
	for i, id := range ids {
		if !affected[id] {
			continue
		}
		row, err := inc.Refresh(id, bases[i])
		if err != nil {
			t.Fatalf("%v: Refresh %d: %v", c, id, err)
		}
		if !slices.EqualFunc(row, rows[i], sameBits) {
			t.Fatalf("%v: imsi %d: Refresh and RefreshAll rows differ", c, id)
		}
	}
	if !slices.EqualFunc(rows[0], rows[len(ids)], sameBits) {
		t.Fatalf("%v: imsi %d listed twice: rows differ", c, ids[0])
	}
	if _, errs := inc.RefreshAll([]int64{outside}, bases[len(ids)+1:]); !errors.Is(errs[0], features.ErrNotInUniverse) {
		t.Fatalf("%v: RefreshAll of only an outside customer: %v", c, errs[0])
	}

	// A refreshed row is the merged rebuild's, but for the graph columns
	// (the snapshot's until the next build) and, with graph groups on, the
	// F9 products of them.
	graphs := !(c.groups & features.GraphGroups).Empty()
	names, groups := merged.Names(), merged.Groups()
	for i, id := range ids {
		want, _ := merged.Row(id)
		for j, g := range groups {
			switch {
			case features.GraphGroups.Has(g):
				if !sameBits(rows[i][j], bases[i][j]) {
					t.Fatalf("%v: imsi %d graph column %q moved on refresh", c, id, names[j])
				}
			case g == features.F9SecondOrder && graphs:
			case !sameBits(rows[i][j], want[j]):
				t.Fatalf("%v: imsi %d (affected=%v) column %q: refreshed %v, merged rebuild %v", c, id, affected[id], names[j], rows[i][j], want[j])
			}
		}
	}
}

// linkEvents points the generated calls and messages at the event
// customers and puts their sightings in a few shared cubes, so the events
// move the graphs: GenerateEvents draws peers and cells uniformly, and its
// rows would almost never reach another customer. Every fourth call and
// message comes from the last target — with one outside the universe, that
// is its edge to a customer, which a full fold counts — and every second
// message is peer to peer, the kind the message graph counts.
func linkEvents(events map[string]*table.Table, targets []int64) {
	last := targets[len(targets)-1]
	for _, name := range []string{synth.TableCalls, synth.TableMessages} {
		t := events[name]
		if t == nil {
			continue
		}
		imsi, peer := t.MustCol("imsi").Ints, t.MustCol("peer").Ints
		for i := range peer {
			if i%4 == 0 {
				imsi[i] = last
			}
			peer[i] = targets[(7*i+1)%len(targets)]
			if peer[i] == imsi[i] {
				peer[i] = targets[(7*i+2)%len(targets)]
			}
		}
		if name == synth.TableMessages {
			kind := t.MustCol("kind").Ints
			for i := 0; i < len(kind); i += 2 {
				kind[i] = 0
			}
		}
	}
	if t := events[synth.TableLocations]; t != nil {
		day, slot, cell := t.MustCol("day").Ints, t.MustCol("slot").Ints, t.MustCol("cell").Ints
		for i := range day {
			day[i], slot[i], cell[i] = 1+int64(i%3), 0, 0
		}
	}
}

func saved(t *testing.T, p *core.Pipeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameFrame fails unless the frames have the same columns (names and
// groups), the same customers in the same order and the same bits.
func sameFrame(t *testing.T, what string, got, want *features.Frame) {
	t.Helper()
	if !slices.Equal(got.Names(), want.Names()) || !slices.Equal(got.Groups(), want.Groups()) {
		t.Fatalf("%s: columns %v, want %v", what, got.Names(), want.Names())
	}
	if !slices.Equal(got.IDs(), want.IDs()) {
		t.Fatalf("%s: %d rows, want %d (or the ids differ)", what, got.NumRows(), want.NumRows())
	}
	for _, id := range want.IDs() {
		g, _ := got.Row(id)
		w, _ := want.Row(id)
		if j := firstDiff(g, w); j >= 0 {
			t.Fatalf("%s: imsi %d column %q = %v, want %v", what, id, want.Names()[j], g[j], w[j])
		}
	}
}

// firstDiff is the first index where a and b hold different bits, or -1.
func firstDiff(a, b []float64) int {
	for i := range b {
		if !sameBits(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// samePreds fails unless the scorings name the same customers with the
// same score bits under the same mask.
func samePreds(t *testing.T, what string, got, want *core.Predictions) {
	t.Helper()
	if !slices.Equal(got.IDs, want.IDs) || got.Degraded != want.Degraded {
		t.Fatalf("%s: %d ids under mask %s, want %d under %s", what, len(got.IDs), got.Degraded, len(want.IDs), want.Degraded)
	}
	if i := firstDiff(got.Scores, want.Scores); i >= 0 {
		t.Fatalf("%s: imsi %d scored %v, want %v", what, want.IDs[i], got.Scores[i], want.Scores[i])
	}
}
