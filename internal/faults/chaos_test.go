package faults

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"slices"
	"testing"
	"time"

	"telcochurn/internal/core"
	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
	"telcochurn/internal/tree"
)

// chaosWorld builds a small warehouse world plus a clean fitted pipeline
// and its healthy predictions for the scoring window.
func chaosWorld(t *testing.T) (*store.Warehouse, core.Source, *core.Pipeline, features.Window, *core.Predictions) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Customers = 250
	cfg.Months = 3
	cfg.Seed = 9
	wh, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.GenerateToWarehouse(cfg, wh); err != nil {
		t.Fatal(err)
	}
	src := core.NewWarehouseSource(wh, cfg.DaysPerMonth)
	p, err := core.Fit(src, []core.WindowSpec{core.MonthSpec(1, cfg.DaysPerMonth)}, core.Config{
		Groups: []features.Group{features.F1Baseline, features.F3PS, features.F4CallGraph},
		Forest: tree.ForestConfig{NumTrees: 15, MinLeafSamples: 10, Seed: 2},
		Seed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	win := features.MonthWindow(2, cfg.DaysPerMonth)
	clean, err := p.Predict(src, win)
	if err != nil {
		t.Fatal(err)
	}
	return wh, src, p, win, clean
}

func noSleep(time.Duration) {}

// runSchedule scores the window under one seeded fault schedule, with the
// production resilience stack (fault source -> retry source -> degraded
// predict).
func runSchedule(src core.Source, p *core.Pipeline, win features.Window, seed int64) (*core.Predictions, Counts, error) {
	inj := New(Config{
		Seed:      seed,
		Transient: 0.30,
		Missing:   0.08,
		Corrupt:   0.05,
		Latency:   time.Millisecond,
		Sleep:     noSleep,
	})
	rs := core.NewRetrySource(Wrap(src, inj), core.RetryConfig{Seed: seed, Sleep: noSleep})
	preds, _, err := p.PredictDegraded(rs.Source, win)
	return preds, inj.Counts(), err
}

// TestChaosScoringTypedOrDegraded is the central chaos property: under any
// seeded fault schedule, degraded scoring either fails with the one typed
// fatal error (the customer universe is gone) or returns a full, valid
// scoring of the window — and a run whose degradation mask is empty is
// bit-identical to the clean run.
func TestChaosScoringTypedOrDegraded(t *testing.T) {
	_, src, p, win, clean := chaosWorld(t)

	degradedRuns, fatalRuns, cleanRuns := 0, 0, 0
	for seed := int64(1); seed <= 15; seed++ {
		preds, counts, err := runSchedule(src, p, win, seed)
		if err != nil {
			if !errors.Is(err, features.ErrUniverseUnavailable) {
				t.Fatalf("seed %d: untyped chaos failure: %v", seed, err)
			}
			fatalRuns++
			continue
		}
		if len(preds.IDs) != len(clean.IDs) {
			t.Fatalf("seed %d: scored %d customers, want %d", seed, len(preds.IDs), len(clean.IDs))
		}
		for i, s := range preds.Scores {
			if math.IsNaN(s) || s < 0 || s > 1 {
				t.Fatalf("seed %d: score[%d] = %v out of range", seed, i, s)
			}
			if preds.IDs[i] != clean.IDs[i] {
				t.Fatalf("seed %d: row %d id %d, want %d", seed, i, preds.IDs[i], clean.IDs[i])
			}
		}
		if preds.Degraded.Empty() {
			for i := range preds.Scores {
				if math.Float64bits(preds.Scores[i]) != math.Float64bits(clean.Scores[i]) {
					t.Fatalf("seed %d: empty mask but score[%d] differs from clean run", seed, i)
				}
			}
			cleanRuns++
		} else {
			degradedRuns++
		}
		if counts.Transients == 0 && counts.Missing == 0 && counts.Corrupt == 0 && !preds.Degraded.Empty() {
			t.Fatalf("seed %d: mask %s with no injected faults", seed, preds.Degraded)
		}
	}
	t.Logf("15 schedules: %d degraded, %d clean, %d fatal", degradedRuns, fatalRuns, cleanRuns)
	if degradedRuns == 0 {
		t.Error("fault rates produced no degraded runs — chaos property untested")
	}
}

// TestChaosScheduleReproducible: the same seed replays the exact same
// failure timeline — identical mask, scores and fault counts.
func TestChaosScheduleReproducible(t *testing.T) {
	_, src, p, win, _ := chaosWorld(t)
	for seed := int64(1); seed <= 5; seed++ {
		a, ca, errA := runSchedule(src, p, win, seed)
		b, cb, errB := runSchedule(src, p, win, seed)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: outcomes diverge: %v vs %v", seed, errA, errB)
		}
		if ca != cb {
			t.Fatalf("seed %d: fault counts diverge: %+v vs %+v", seed, ca, cb)
		}
		if errA != nil {
			continue
		}
		if a.Degraded != b.Degraded {
			t.Fatalf("seed %d: masks diverge: %s vs %s", seed, a.Degraded, b.Degraded)
		}
		for i := range a.Scores {
			if math.Float64bits(a.Scores[i]) != math.Float64bits(b.Scores[i]) {
				t.Fatalf("seed %d: replayed score[%d] differs", seed, i)
			}
		}
	}
}

// TestChaosZeroRateBitIdentical: a zero-rate injector plus the full retry
// stack changes nothing — scores are bit-identical to the plain pipeline
// and no fault counter moves.
func TestChaosZeroRateBitIdentical(t *testing.T) {
	_, src, p, win, clean := chaosWorld(t)
	inj := New(Config{Seed: 123})
	rs := core.NewRetrySource(Wrap(src, inj), core.RetryConfig{Seed: 123, Sleep: noSleep})
	preds, _, err := p.PredictDegraded(rs.Source, win)
	if err != nil {
		t.Fatal(err)
	}
	if !preds.Degraded.Empty() {
		t.Errorf("zero-rate mask = %s, want none", preds.Degraded)
	}
	for i := range preds.Scores {
		if preds.IDs[i] != clean.IDs[i] || math.Float64bits(preds.Scores[i]) != math.Float64bits(clean.Scores[i]) {
			t.Fatalf("zero-rate run differs from clean run at row %d", i)
		}
	}
	if c := inj.Counts(); c != (Counts{}) {
		t.Errorf("zero-rate injector fired faults: %+v", c)
	}
	if rs.Retries() != 0 {
		t.Errorf("zero-rate run performed %d retries", rs.Retries())
	}
}

// TestChaosCrashStormNeverTearsWarehouse hammers partition writes and
// event-log appends through crash-injecting hooks across many seeds,
// retrying each crashed write like the ETL driver would, and asserts the
// warehouse is never left with a torn (listed but unreadable) partition and
// the merged log holds every appended day exactly once.
func TestChaosCrashStormNeverTearsWarehouse(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Customers = 60
	cfg.Months = 2
	cfg.Seed = 4
	months := synth.Simulate(cfg)

	var appendCrashes uint64
	for seed := int64(1); seed <= 8; seed++ {
		wh, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		inj := New(Config{Seed: seed, CrashWrites: 0.4})
		wh.SetHook(inj.WarehouseHook())

		write := func(desc string, f func() error) {
			for attempt := 0; ; attempt++ {
				err := f()
				if err == nil {
					return
				}
				var cr *store.Crash
				if !errors.As(err, &cr) {
					t.Fatalf("seed %d: %s: non-crash failure: %v", seed, desc, err)
				}
				if attempt > 20 {
					t.Fatalf("seed %d: %s: still crashing after %d attempts", seed, desc, attempt)
				}
			}
		}
		for _, md := range months {
			for name, tb := range md.Tables() {
				name, tb := name, tb
				m := md.Month
				write(fmt.Sprintf("write %s m%d", name, m), func() error { return wh.WritePartition(name, m, tb) })
			}
		}
		writeCrashes := inj.Counts().Crashes
		// Append three days of calls for a fresh month to the event log,
		// then merge them with the storm over. A crash after the rename
		// leaves the segment committed but unacknowledged; the retry
		// rewrites the same sequence number, so no day lands twice.
		elog, err := wh.EventLog()
		if err != nil {
			t.Fatal(err)
		}
		loggedMonth := int64(cfg.Months + 1)
		day := months[0].Calls.Filter(func(int) bool { return true })
		for i := range day.MustCol("month").Ints {
			day.MustCol("month").Ints[i] = loggedMonth
		}
		for d := 1; d <= 3; d++ {
			write(fmt.Sprintf("append day %d", d), func() error {
				_, err := elog.Append(map[string]*table.Table{synth.TableCalls: day})
				return err
			})
		}
		appendCrashes += inj.Counts().Crashes - writeCrashes
		wh.SetHook(nil)
		if n, err := elog.MergeInto(); err != nil || n != 3*day.NumRows() {
			t.Fatalf("seed %d: merge after storm: %d rows, %v; want %d", seed, n, err, 3*day.NumRows())
		}
		merged, err := wh.ReadPartition(synth.TableCalls, int(loggedMonth))
		if err != nil {
			t.Fatalf("seed %d: merged month: %v", seed, err)
		}
		ids := day.MustCol("imsi").Ints
		if want := slices.Concat(ids, ids, ids); !slices.Equal(merged.MustCol("imsi").Ints, want) {
			t.Fatalf("seed %d: merged month holds %d rows, want the %d of three days in order", seed, merged.NumRows(), len(want))
		}

		// Everything listed must read back whole.
		for name := range months[0].Tables() {
			ms, err := wh.Months(name)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) == 0 {
				t.Fatalf("seed %d: %s has no partitions after storm", seed, name)
			}
			for _, m := range ms {
				if _, err := wh.ReadPartition(name, m); err != nil {
					t.Errorf("seed %d: torn partition %s month=%d: %v", seed, name, m, err)
				}
			}
		}
		crashes := inj.Counts().Crashes
		if crashes == 0 {
			t.Errorf("seed %d: storm injected no crashes", seed)
		}
	}
	if appendCrashes == 0 {
		t.Error("no seed crashed an event-log append")
	}
}

// TestInjectorDeterministicDecisions: two injectors with the same seed make
// identical decisions for an identical call sequence; a different seed
// diverges somewhere.
func TestInjectorDeterministicDecisions(t *testing.T) {
	trace := func(seed int64) []string {
		inj := New(Config{Seed: seed, Transient: 0.4, Missing: 0.1, Corrupt: 0.1, Sleep: noSleep})
		var out []string
		for i := 0; i < 40; i++ {
			err := inj.readFault(fmt.Sprintf("read:t%d", i%5), []int{i % 3})
			out = append(out, fmt.Sprint(err))
		}
		return out
	}
	a, b, c := trace(42), trace(42), trace(43)
	diff43 := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %q vs %q", i, a[i], b[i])
		}
		if a[i] != c[i] {
			diff43 = true
		}
	}
	if !diff43 {
		t.Error("seeds 42 and 43 produced identical 40-call schedules")
	}
}

// TestChaosShardedCrashStormNeverTearsWarehouse is the sharded-layout twin
// of the crash-storm property: a crash anywhere inside a multi-file shard
// set must never tear the month. Readers see the complete old layout or the
// complete new one — an interrupted set reads as absent, never as a partial
// or corrupt month — and retrying the write to completion always recovers.
func TestChaosShardedCrashStormNeverTearsWarehouse(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Customers = 60
	cfg.Months = 2
	cfg.Seed = 4
	months := synth.Simulate(cfg)

	for seed := int64(1); seed <= 8; seed++ {
		wh, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sw, err := wh.Sharded(4)
		if err != nil {
			t.Fatal(err)
		}
		inj := New(Config{Seed: seed, CrashWrites: 0.3})
		wh.SetHook(inj.WarehouseHook())

		write := func(desc string, f func() error) {
			for attempt := 0; ; attempt++ {
				err := f()
				if err == nil {
					return
				}
				var cr *store.Crash
				if !errors.As(err, &cr) {
					t.Fatalf("seed %d: %s: non-crash failure: %v", seed, desc, err)
				}
				if attempt > 40 {
					t.Fatalf("seed %d: %s: still crashing after %d attempts", seed, desc, attempt)
				}
				// Mid-storm invariant: a crash inside the shard set must
				// leave the month whole-old or absent, never torn.
				if _, rerr := wh.ReadPartition(synth.TableCalls, 1); rerr != nil &&
					!errors.Is(rerr, fs.ErrNotExist) {
					t.Fatalf("seed %d: %s: crash window exposed a torn month: %v", seed, desc, rerr)
				}
			}
		}
		for _, md := range months {
			for name, tb := range md.Tables() {
				name, tb := name, tb
				m := md.Month
				write(fmt.Sprintf("sharded write %s m%d", name, m), func() error {
					return sw.WritePartition(name, m, tb)
				})
			}
		}
		wh.SetHook(nil)

		// Every month reads back whole, with exactly the simulated rows.
		for name, tb := range months[0].Tables() {
			got, err := wh.ReadPartition(name, 1)
			if err != nil {
				t.Fatalf("seed %d: torn sharded partition %s: %v", seed, name, err)
			}
			if got.NumRows() != tb.NumRows() {
				t.Fatalf("seed %d: %s month 1 has %d rows, want %d", seed, name, got.NumRows(), tb.NumRows())
			}
			shards, err := wh.DetectShards(name)
			if err != nil || shards != 4 {
				t.Fatalf("seed %d: %s landed with %d shards (err=%v), want 4", seed, name, shards, err)
			}
		}
		if inj.Counts().Crashes == 0 {
			t.Errorf("seed %d: storm injected no crashes", seed)
		}
	}
}

// TestShardedCrashWindowCompleteOldOrNew pins the exact crash-window
// semantics with a deterministic hook: crashing on the nth shard file of an
// overwrite leaves the complete previous month visible (the plain file
// wins until the set commits), and on a fresh month leaves it cleanly
// absent — fs.ErrNotExist, never store.ErrCorrupt.
func TestShardedCrashWindowCompleteOldOrNew(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Customers = 40
	cfg.Months = 1
	cfg.Seed = 6
	months := synth.Simulate(cfg)
	calls := months[0].Calls

	for crashAt := 1; crashAt <= 4; crashAt++ {
		wh, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sw, err := wh.Sharded(4)
		if err != nil {
			t.Fatal(err)
		}

		armCrash := func(n int) {
			count := 0
			wh.SetHook(func(op store.Op, name string, month int) error {
				if op != store.OpWritePartition {
					return nil
				}
				count++
				if count == n {
					return &store.Crash{Point: store.CrashMidWrite}
				}
				return nil
			})
		}

		// Fresh month, crash mid-set: the month must read as absent.
		armCrash(crashAt)
		err = sw.WritePartition(synth.TableCalls, 1, calls)
		var cr *store.Crash
		if !errors.As(err, &cr) {
			t.Fatalf("crashAt=%d: fresh write returned %v, want crash", crashAt, err)
		}
		if _, rerr := wh.ReadPartition(synth.TableCalls, 1); !errors.Is(rerr, fs.ErrNotExist) {
			t.Fatalf("crashAt=%d: interrupted fresh set reads as %v, want fs.ErrNotExist", crashAt, rerr)
		}
		if wh.HasPartition(synth.TableCalls, 1) {
			t.Fatalf("crashAt=%d: HasPartition true over interrupted fresh set", crashAt)
		}

		// Retry to completion: the month recovers whole.
		wh.SetHook(nil)
		if err := sw.WritePartition(synth.TableCalls, 1, calls); err != nil {
			t.Fatalf("crashAt=%d: recovery write: %v", crashAt, err)
		}
		whole, err := wh.ReadPartition(synth.TableCalls, 1)
		if err != nil || whole.NumRows() != calls.NumRows() {
			t.Fatalf("crashAt=%d: recovered month rows=%v err=%v, want %d rows", crashAt, whole.NumRows(), err, calls.NumRows())
		}

		// Overwrite with a plain month in place: a crash mid-set must leave
		// the complete old month visible (plain file wins until commit).
		if err := wh.WritePartition(synth.TableCalls, 2, calls); err != nil {
			t.Fatal(err)
		}
		armCrash(crashAt)
		err = sw.WritePartition(synth.TableCalls, 2, calls)
		if !errors.As(err, &cr) {
			t.Fatalf("crashAt=%d: overwrite returned %v, want crash", crashAt, err)
		}
		wh.SetHook(nil)
		old, err := wh.ReadPartition(synth.TableCalls, 2)
		if err != nil {
			t.Fatalf("crashAt=%d: crash window lost the old month: %v", crashAt, err)
		}
		if old.NumRows() != calls.NumRows() {
			t.Fatalf("crashAt=%d: old month has %d rows after crash, want %d", crashAt, old.NumRows(), calls.NumRows())
		}
	}
}
