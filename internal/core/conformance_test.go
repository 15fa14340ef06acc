package core_test

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"testing"
	"time"

	"telcochurn/internal/core"
	"telcochurn/internal/faults"
	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// The source-conformance matrix: a source is a reader factory and a
// decorator is one ReadMonths, so every decorator — alone or stacked, in
// either order — over every base must read exactly what the base reads
// when it has nothing to add, and must pass a failing table through to the
// loaders unchanged in kind.

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

// overlaid is the maintained view of src's month 2 with no events folded
// in: it answers month 2 from memory and must read what src reads. Loading
// it fails only without a customer snapshot.
func overlaid(src core.Source) (core.Source, error) {
	inc, err := core.LoadIncremental(src, features.MonthWindow(2, src.DaysPerMonth()))
	if err != nil {
		return core.Source{}, err
	}
	return inc.View(src), nil
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

// failing makes one table of src unreadable at the reader, below whatever
// decorators are stacked on the result.
func failing(src core.Source, name string, err error) core.Source {
	return src.With(func(_, _ int, r features.TableReader) features.TableReader {
		return failingReader{TableReader: r, name: name, err: err}
	})
}

func sameTable(t *testing.T, what string, got, want *table.Table) {
	t.Helper()
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("%s: schema %s, want %s", what, got.Schema, want.Schema)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows, want %d", what, got.NumRows(), want.NumRows())
	}
	for c, wc := range want.Cols {
		gc, name := got.Cols[c], want.Schema.Fields[c].Name
		for i := 0; i < want.NumRows(); i++ {
			var same bool
			switch wc.Type {
			case table.Int64:
				same = gc.Ints[i] == wc.Ints[i]
			case table.Float64:
				same = math.Float64bits(gc.Floats[i]) == math.Float64bits(wc.Floats[i])
			default:
				same = gc.Strings[i] == wc.Strings[i]
			}
			if !same {
				t.Fatalf("%s: column %q row %d differs", what, name, i)
			}
		}
	}
}

func sameTables(t *testing.T, what string, got, want features.Tables) {
	t.Helper()
	for _, p := range []struct {
		name      string
		got, want *table.Table
	}{
		{synth.TableCalls, got.Calls, want.Calls},
		{synth.TableMessages, got.Messages, want.Messages},
		{synth.TableRecharges, got.Recharges, want.Recharges},
		{synth.TableBilling, got.Billing, want.Billing},
		{synth.TableCustomers, got.Customers, want.Customers},
		{synth.TableComplaints, got.Complaints, want.Complaints},
		{synth.TableWeb, got.Web, want.Web},
		{synth.TableSearch, got.Search, want.Search},
		{synth.TableLocations, got.Locations, want.Locations},
	} {
		sameTable(t, what+" "+p.name, p.got, p.want)
	}
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
	wraps := []struct {
		name string
		wrap func(core.Source) (core.Source, error)
	}{
		{"none", func(s core.Source) (core.Source, error) { return s, nil }},
		{"retry", func(s core.Source) (core.Source, error) { return retrying(s), nil }},
		{"overlay", overlaid},
		{"faults", func(s core.Source) (core.Source, error) { return faults.Wrap(s, faults.New(faults.Config{})), nil }},
		{"retry(overlay)", func(s core.Source) (core.Source, error) {
			o, err := overlaid(s)
			return retrying(o), err
		}},
		{"overlay(retry)", func(s core.Source) (core.Source, error) { return overlaid(retrying(s)) }},
	}
	// Two months, so every read also concatenates.
	win := features.Window{FromAbs: 1, ToAbs: 2 * days}
	months := win.Months(days)
	graph := core.NewFrameBuilder(core.Config{Groups: []features.Group{features.F1Baseline, features.F4CallGraph}})
	down := fmt.Errorf("feed down: %w", fs.ErrNotExist)

	for _, b := range bases {
		want, err := b.src.Tables(win)
		if err != nil {
			t.Fatal(err)
		}
		wantTruth, err := b.src.Truth(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range wraps {
			t.Run(b.name+"/"+w.name, func(t *testing.T) {
				wrap := func(s core.Source) core.Source {
					t.Helper()
					src, err := w.wrap(s)
					if err != nil {
						t.Fatal(err)
					}
					return src
				}
				src := wrap(b.src)
				if src.DaysPerMonth() != days || src.NumShards() != b.src.NumShards() {
					t.Fatalf("days/shards = %d/%d, want %d/%d", src.DaysPerMonth(), src.NumShards(), days, b.src.NumShards())
				}
				if _, ok := core.AsSharded(src); ok != (b.src.NumShards() > 0) {
					t.Fatalf("AsSharded = %v over %d shards", ok, b.src.NumShards())
				}
				got, err := src.Tables(win)
				if err != nil {
					t.Fatal(err)
				}
				sameTables(t, "Tables", got, want)
				healthy, _, deg, err := graph.BuildFrameDegraded(src, win)
				if err != nil || !deg.Empty() {
					t.Fatalf("degraded build with nothing down: mask %s, err %v", deg, err)
				}
				truth, err := src.Truth(2)
				if err != nil {
					t.Fatal(err)
				}
				sameTable(t, "Truth", truth, wantTruth)
				rows := 0
				for s := 0; s < src.NumShards(); s++ {
					gs, err := src.ShardReader(s).ReadMonths(synth.TableCalls, months)
					if err != nil {
						t.Fatal(err)
					}
					ws, err := b.src.ShardReader(s).ReadMonths(synth.TableCalls, months)
					if err != nil {
						t.Fatal(err)
					}
					sameTable(t, fmt.Sprintf("shard %d calls", s), gs, ws)
					rows += gs.NumRows()
				}
				if src.NumShards() > 0 && rows != want.Calls.NumRows() {
					t.Fatalf("shard readers hold %d calls rows, whole months %d", rows, want.Calls.NumRows())
				}

				// One table down at the reader: strict fails with the
				// reader's error, a degraded build flags exactly the groups
				// that table backs and leaves the rest (the call graph's
				// columns) as the healthy build has them.
				src = wrap(failing(b.src, synth.TableWeb, down))
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
				// Without a customer snapshot the maintained view cannot load;
				// either way the refusal is the typed one.
				src, err = w.wrap(failing(b.src, synth.TableCustomers, down))
				if err == nil {
					_, _, _, err = graph.BuildFrameDegraded(src, win)
				}
				if !errors.Is(err, features.ErrUniverseUnavailable) {
					t.Fatalf("degraded build with customers down: %v, want ErrUniverseUnavailable", err)
				}

				// The truth feed down: strict builds fail on it, degraded
				// builds flag the graph groups it seeds and nothing else.
				src = wrap(failing(b.src, synth.TableTruth, down))
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

// TestSourceConformanceOverlayCopies: the maintained view may be loaded from
// tables it does not own — a memory source shares the simulator's — and a
// view is a snapshot. Ingest never grows the simulator's tables, and a view
// taken before an ingest never sees it.
func TestSourceConformanceOverlayCopies(t *testing.T) {
	cfg := conformanceCfg()
	days := cfg.DaysPerMonth
	sim := synth.Simulate(cfg)
	src := core.NewMemorySource(sim, days)
	win := features.MonthWindow(2, days)
	before := map[string]int{}
	for name, tb := range sim[1].Tables() {
		before[name] = tb.NumRows()
	}
	inc, err := core.LoadIncremental(src, win)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(seed int64) int {
		ev := synth.GenerateEvents(sim[1].Customers.MustCol("imsi").Ints[:20], 2, days, 120, seed)[synth.TableRecharges]
		if _, _, err := inc.Ingest(synth.TableRecharges, ev); err != nil {
			t.Fatal(err)
		}
		return ev.NumRows()
	}
	recharges := func(view core.Source) int {
		tbl, err := view.Tables(win)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.Recharges.NumRows()
	}
	first := ingest(3)
	early := inc.View(src)
	second := ingest(4)
	late := inc.View(src)
	for pass := 0; pass < 2; pass++ {
		if got, want := recharges(early), before[synth.TableRecharges]+first; got != want {
			t.Fatalf("pass %d: early view recharges = %d rows, want %d", pass, got, want)
		}
		if got, want := recharges(late), before[synth.TableRecharges]+first+second; got != want {
			t.Fatalf("pass %d: late view recharges = %d rows, want %d", pass, got, want)
		}
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
	rs := core.NewRetrySource(flaky, core.RetryConfig{BaseDelay: time.Millisecond, WindowBudget: budget, Sleep: noSleep})
	win := features.MonthWindow(1, cfg.DaysPerMonth)
	if _, err := rs.Tables(win); err != nil {
		t.Fatalf("first load: %v", err)
	}
	time.Sleep(budget + 10*time.Millisecond)
	if _, err := rs.Tables(win); err != nil {
		t.Fatalf("load after the first one's budget ran out: %v", err)
	}
	if rs.Retries() != 2 || rs.Exhausted() != 0 {
		t.Fatalf("retries=%d exhausted=%d, want 2/0", rs.Retries(), rs.Exhausted())
	}
}

type readerFunc func(name string, months []int) (*table.Table, error)

func (f readerFunc) ReadMonths(name string, months []int) (*table.Table, error) {
	return f(name, months)
}
