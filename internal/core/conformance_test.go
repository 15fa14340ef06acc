package core_test

import (
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

// The source-conformance matrix: a source is a reader factory and a
// decorator is one ReadMonths, so every decorator — alone or stacked, in
// either order — over every base must keep the base's shape and pass a
// failing table through to the loaders unchanged in kind. The maintained
// month (core.Incremental) loaded over a base, bare or retrying, must
// build the frame and mask a degraded build over it builds, failing table
// or not. That a decorator with nothing to add reads exactly what its base
// reads is FuzzPipelineIdentity's.

func conformanceCfg() synth.Config {
	cfg := synth.DefaultConfig()
	cfg.Customers = 150
	cfg.Months = 2
	cfg.Seed = 17
	cfg.BurnInMonths = 1
	return cfg
}

func tempWarehouse(t *testing.T) *store.Warehouse {
	t.Helper()
	wh, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return wh
}

func noSleep(time.Duration) {}

func retrying(src core.Source) core.Source {
	return core.NewRetrySource(src, core.RetryConfig{Sleep: noSleep}).Source
}

// failingReader fails every read of one table with a fixed error.
type failingReader struct {
	features.TableReader
	name string
	err  error
}

func (r failingReader) ReadMonths(name string, months []int) (*table.Table, error) {
	if name == r.name {
		return nil, r.err
	}
	return r.TableReader.ReadMonths(name, months)
}

// dead is the error an unreadable table's reads fail with.
var dead = fmt.Errorf("feed down: %w", fs.ErrNotExist)

// failing makes one table of src unreadable at the reader, below whatever
// decorators are stacked on the result.
func failing(src core.Source, name string, err error) core.Source {
	return src.With(func(_, _ int, r features.TableReader) features.TableReader {
		return failingReader{TableReader: r, name: name, err: err}
	})
}

func TestSourceConformance(t *testing.T) {
	cfg := conformanceCfg()
	days := cfg.DaysPerMonth
	plain := tempWarehouse(t)
	if err := synth.GenerateToWarehouse(cfg, plain); err != nil {
		t.Fatal(err)
	}
	sw, err := tempWarehouse(t).Sharded(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.GenerateToShardedWarehouse(cfg, sw); err != nil {
		t.Fatal(err)
	}
	bases := []struct {
		name string
		src  core.Source
	}{
		{"memory", core.NewMemorySource(synth.Simulate(cfg), days)},
		{"warehouse", core.NewWarehouseSource(plain, days)},
		{"sharded4", core.NewShardedWarehouseSource(sw, days)},
	}
	// A live entry loads the maintained month over the wrapped base
	// instead of checking the wrapped source itself.
	wraps := []struct {
		name string
		wrap func(core.Source) core.Source
		live bool
	}{
		{"none", func(s core.Source) core.Source { return s }, false},
		{"retry", retrying, false},
		{"overlay", func(s core.Source) core.Source { return s }, true},
		{"faults", func(s core.Source) core.Source { return faults.Wrap(s, faults.New(faults.Config{})) }, false},
		{"overlay(retry)", retrying, true},
	}
	// Two months, so every read also concatenates.
	win := features.Window{FromAbs: 1, ToAbs: 2 * days}
	graph := core.NewFrameBuilder(core.Config{Groups: []features.Group{features.F1Baseline, features.F4CallGraph}})
	fitted := conformancePipeline(t, bases[0].src)

	for _, b := range bases {
		for _, w := range wraps {
			t.Run(b.name+"/"+w.name, func(t *testing.T) {
				wrap := w.wrap
				if w.live {
					checkLiveConformance(t, fitted, func(down string) core.Source {
						if down == "" {
							return wrap(b.src)
						}
						return wrap(failing(b.src, down, dead))
					}, features.MonthWindow(2, days))
					return
				}
				src := wrap(b.src)
				if src.DaysPerMonth() != days || src.NumShards() != b.src.NumShards() {
					t.Fatalf("days/shards = %d/%d, want %d/%d", src.DaysPerMonth(), src.NumShards(), days, b.src.NumShards())
				}
				if _, ok := core.AsSharded(src); ok != (b.src.NumShards() > 0) {
					t.Fatalf("AsSharded = %v over %d shards", ok, b.src.NumShards())
				}
				healthy, _, deg, err := graph.BuildFrameDegraded(src, win)
				if err != nil || !deg.Empty() {
					t.Fatalf("degraded build with nothing down: mask %s, err %v", deg, err)
				}

				// One table down at the reader: strict fails with the
				// reader's error, a degraded build flags exactly the groups
				// that table backs and leaves the rest (the call graph's
				// columns) as the healthy build has them.
				src = wrap(failing(b.src, synth.TableWeb, dead))
				if _, err := src.Tables(win); !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("strict load with web down: %v, want ErrNotExist", err)
				}
				if _, err := graph.BuildFrame(src, win, false, nil); !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("strict build with web down: %v, want ErrNotExist", err)
				}
				imputed, _, deg, err := graph.BuildFrameDegraded(src, win)
				if err != nil || deg.String() != "F1" {
					t.Fatalf("degraded build with web down: mask %s, err %v", deg, err)
				}
				for j, g := range imputed.Groups() {
					if g != features.F4CallGraph {
						continue
					}
					for _, id := range imputed.IDs() {
						got, _ := imputed.Row(id)
						want, _ := healthy.Row(id)
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("imsi %d: call-graph column %d moved with web down", id, j)
						}
					}
				}
				// Without a customer snapshot the refusal is the typed one.
				src = wrap(failing(b.src, synth.TableCustomers, dead))
				if _, _, _, err = graph.BuildFrameDegraded(src, win); !errors.Is(err, features.ErrUniverseUnavailable) {
					t.Fatalf("degraded build with customers down: %v, want ErrUniverseUnavailable", err)
				}

				// The truth feed down: strict builds fail on it, degraded
				// builds flag the graph groups it seeds and nothing else.
				src = wrap(failing(b.src, synth.TableTruth, dead))
				if _, err := src.Truth(2); !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("Truth with the feed down: %v, want ErrNotExist", err)
				}
				month2 := features.MonthWindow(2, days)
				if _, err := graph.BuildFrame(src, month2, false, nil); err == nil {
					t.Fatal("strict build survived a dead truth feed")
				}
				if _, _, deg, err = graph.BuildFrameDegraded(src, month2); err != nil {
					t.Fatal(err)
				}
				if deg.String() != "F4" {
					t.Fatalf("degraded mask with truth down = %s, want F4", deg)
				}
			})
		}
	}
}

// checkLiveConformance holds the maintained month of win over src (down
// names a table src makes unreadable, "" none) to the degraded build over
// the same source, frame and mask: with nothing down, with web down (its
// events refused) and with the truth feed down (strict seeds failing with
// the reader's error). Without a customer snapshot the load refuses with
// the typed error.
func checkLiveConformance(t *testing.T, p *core.Pipeline, src func(down string) core.Source, win features.Window) {
	t.Helper()
	masks := map[string]features.Degradation{
		"":               0,
		synth.TableWeb:   features.GroupSetOf(features.F1Baseline),
		synth.TableTruth: features.GroupSetOf(features.F4CallGraph),
	}
	for _, down := range []string{"", synth.TableWeb, synth.TableTruth} {
		s := src(down)
		inc, err := core.NewIncremental(p, s, win)
		if err != nil {
			t.Fatalf("%q down: load: %v", down, err)
		}
		var missing []string
		if down == synth.TableWeb {
			missing = []string{down}
		}
		if !slices.Equal(inc.Missing(), missing) {
			t.Fatalf("%q down: missing %v, want %v", down, inc.Missing(), missing)
		}
		if _, err := inc.ReadSeeds(s, false); (down == synth.TableTruth) != errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%q down: strict seeds: %v", down, err)
		}
		seeds, err := inc.ReadSeeds(s, true)
		if err != nil {
			t.Fatalf("%q down: partial seeds: %v", down, err)
		}
		captured, err := inc.Capture(seeds)
		if err != nil {
			t.Fatalf("%q down: capture: %v", down, err)
		}
		got, deg, err := captured.Frame()
		if err != nil || deg != masks[down] {
			t.Fatalf("%q down: capture's frame: mask %s, want %s, err %v", down, deg, masks[down], err)
		}
		want, _, _, err := p.BuildFrameDegraded(s, win)
		if err != nil {
			t.Fatalf("%q down: degraded build: %v", down, err)
		}
		sameFrame(t, fmt.Sprintf("%q down: capture vs degraded build", down), got, want)
		if _, _, err := inc.Ingest(synth.TableWeb, table.NewTable(synth.WebSchema)); (down == synth.TableWeb) != (err != nil) {
			t.Fatalf("%q down: web events: %v", down, err)
		}
	}
	if _, err := core.NewIncremental(p, src(synth.TableCustomers), win); !errors.Is(err, features.ErrUniverseUnavailable) {
		t.Fatalf("load with customers down: %v, want ErrUniverseUnavailable", err)
	}
}

// conformancePipeline fits the F1 + call-graph pipeline the maintained
// month is checked with, on month 1 of src.
func conformancePipeline(t *testing.T, src core.Source) *core.Pipeline {
	t.Helper()
	p, err := core.Fit(src, []core.WindowSpec{core.MonthSpec(1, src.DaysPerMonth())}, core.Config{
		Groups: []features.Group{features.F1Baseline, features.F4CallGraph},
		Forest: tree.ForestConfig{NumTrees: 2, MinLeafSamples: 10},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSourceConformanceOverlayCopies: the maintained month may be loaded
// from tables it does not own — a memory source shares the simulator's —
// and a capture is a snapshot. Ingest never grows the simulator's tables; a
// capture builds the frame of the month with the events ingested before
// it merged in, and only those, however often it is built.
func TestSourceConformanceOverlayCopies(t *testing.T) {
	cfg := conformanceCfg()
	days := cfg.DaysPerMonth
	sim := synth.Simulate(cfg)
	src := core.NewMemorySource(sim, days)
	p := conformancePipeline(t, src)
	win := features.MonthWindow(2, days)
	before := map[string]int{}
	for name, tb := range sim[1].Tables() {
		before[name] = tb.NumRows()
	}
	inc, err := core.NewIncremental(p, src, win)
	if err != nil {
		t.Fatal(err)
	}
	var events []*table.Table
	ingest := func(seed int64) {
		ev := synth.GenerateEvents(sim[1].Customers.MustCol("imsi").Ints[:20], 2, days, 120, seed)[synth.TableRecharges]
		if _, _, err := inc.Ingest(synth.TableRecharges, ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	capture := func() *core.Captured {
		seeds, err := inc.ReadSeeds(src, false)
		if err != nil {
			t.Fatal(err)
		}
		c, err := inc.Capture(seeds)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// merged builds month 2 with the events so far appended to its
	// recharges, as a merge lays them.
	merged := func() *features.Frame {
		months := slices.Clone(sim)
		md := *sim[1]
		var err error
		if md.Recharges, err = table.Concat(append([]*table.Table{sim[1].Recharges}, events...)); err != nil {
			t.Fatal(err)
		}
		months[1] = &md
		frame, err := p.BuildFrame(core.NewMemorySource(months, days), win, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	build := func(c *core.Captured) *features.Frame {
		frame, _, err := c.Frame()
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	ingest(3)
	early, first := capture(), merged()
	ingest(4)
	late, second := capture(), merged()
	for pass := 0; pass < 2; pass++ {
		sameFrame(t, fmt.Sprintf("pass %d: early capture", pass), build(early), first)
		sameFrame(t, fmt.Sprintf("pass %d: late capture", pass), build(late), second)
	}
	for name, tb := range sim[1].Tables() {
		if tb.NumRows() != before[name] {
			t.Errorf("ingest grew the simulator's %s table from %d to %d rows", name, before[name], tb.NumRows())
		}
	}
}

// TestSourceConformanceRetryDeadlinePerOpen: the retry budget is per window
// load. The view opens one reader per load and each starts its own
// deadline, so a load begun after an earlier one's budget has run out
// still gets to retry.
func TestSourceConformanceRetryDeadlinePerOpen(t *testing.T) {
	cfg := conformanceCfg()
	base := core.NewMemorySource(synth.Simulate(cfg), cfg.DaysPerMonth)
	// calls is the first table a window load reads, so its retry is
	// decided right after the reader opens.
	failures := 0
	flaky := base.With(func(_, _ int, r features.TableReader) features.TableReader {
		failures = 1
		return readerFunc(func(name string, months []int) (*table.Table, error) {
			if name == synth.TableCalls && failures > 0 {
				failures--
				return nil, errors.New("transient blip")
			}
			return r.ReadMonths(name, months)
		})
	})
	const budget = 50 * time.Millisecond
	var retries atomic.Int64
	rs := core.NewRetrySource(flaky, core.RetryConfig{BaseDelay: time.Millisecond, WindowBudget: budget, Sleep: noSleep,
		OnRetry: func(string, int, time.Duration, error) { retries.Add(1) }})
	win := features.MonthWindow(1, cfg.DaysPerMonth)
	if _, err := rs.Tables(win); err != nil {
		t.Fatalf("first load: %v", err)
	}
	time.Sleep(budget + 10*time.Millisecond)
	if _, err := rs.Tables(win); err != nil {
		t.Fatalf("load after the first one's budget ran out: %v", err)
	}
	if retries.Load() != 2 || rs.Exhausted() != 0 {
		t.Fatalf("retries=%d exhausted=%d, want 2/0", retries.Load(), rs.Exhausted())
	}
}

type readerFunc func(name string, months []int) (*table.Table, error)

func (f readerFunc) ReadMonths(name string, months []int) (*table.Table, error) {
	return f(name, months)
}
