package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"telcochurn/internal/features"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// flakyReader fails every read a set number of times before succeeding.
// Its count is locked, as the TableReader contract asks.
type flakyReader struct {
	mu       sync.Mutex
	failures int
	calls    int
	err      error
}

func (r *flakyReader) ReadMonths(name string, months []int) (*table.Table, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	if r.calls <= r.failures {
		return nil, r.err
	}
	return nil, nil
}

// readerSource is a source whose every reader is r.
func readerSource(r features.TableReader) Source {
	return Source{days: 30, open: func(int) features.TableReader { return r }}
}

// fakeClock records each backoff instead of sleeping it; retries of a
// window's tables run concurrently, so the record is locked.
func fakeClock(delays *[]time.Duration) func(time.Duration) {
	var mu sync.Mutex
	return func(d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		*delays = append(*delays, d)
	}
}

func TestRetryRecoversAfterTransients(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var delays []time.Duration
		var retries atomic.Int64
		src := &flakyReader{failures: 2, err: errors.New("transient blip")}
		rs := NewRetrySource(readerSource(src), RetryConfig{Seed: seed, Sleep: fakeClock(&delays), OnRetry: func(string, int, time.Duration, error) { retries.Add(1) }})
		if _, err := rs.Truth(1); err != nil {
			t.Fatalf("Truth after transients: %v", err)
		}
		if src.calls != 3 {
			t.Errorf("calls = %d, want 3", src.calls)
		}
		if retries.Load() != 2 || rs.Exhausted() != 0 {
			t.Errorf("retries=%d exhausted=%d, want 2/0", retries.Load(), rs.Exhausted())
		}
		return delays
	}

	delays := run(11)
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
	// Seeded jitter keeps each step within [0.5, 1.5) of the doubling base.
	if delays[0] < 25*time.Millisecond || delays[0] >= 75*time.Millisecond {
		t.Errorf("first backoff %v outside jittered [25ms,75ms)", delays[0])
	}
	if delays[1] < 50*time.Millisecond || delays[1] >= 150*time.Millisecond {
		t.Errorf("second backoff %v outside jittered [50ms,150ms)", delays[1])
	}
	// Same seed, same failure pattern: identical schedule.
	again := run(11)
	for i := range delays {
		if delays[i] != again[i] {
			t.Errorf("seed 11 rerun: delay[%d] = %v vs %v — backoff not deterministic", i, again[i], delays[i])
		}
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	var delays []time.Duration
	var retries atomic.Int64
	boom := errors.New("hard down")
	src := &flakyReader{failures: 100, err: boom}
	rs := NewRetrySource(readerSource(src), RetryConfig{MaxAttempts: 3, Sleep: fakeClock(&delays), OnRetry: func(string, int, time.Duration, error) { retries.Add(1) }})
	if _, err := rs.Truth(1); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped inner error", err)
	}
	if src.calls != 3 || retries.Load() != 2 || rs.Exhausted() != 1 {
		t.Errorf("calls=%d retries=%d exhausted=%d, want 3/2/1", src.calls, retries.Load(), rs.Exhausted())
	}
}

func TestRetryDoesNotRetryDeterministicFailures(t *testing.T) {
	var delays []time.Duration
	src := &flakyReader{failures: 100, err: fmt.Errorf("read: %w", fs.ErrNotExist)}
	rs := NewRetrySource(readerSource(src), RetryConfig{Sleep: fakeClock(&delays)})
	if _, err := rs.Truth(1); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
	if src.calls != 1 || len(delays) != 0 {
		t.Errorf("calls=%d sleeps=%d — a missing partition was retried", src.calls, len(delays))
	}
}

func TestRetryRespectsWindowBudget(t *testing.T) {
	var delays []time.Duration
	src := &flakyReader{failures: 100, err: errors.New("slow outage")}
	rs := NewRetrySource(readerSource(src), RetryConfig{
		BaseDelay:    time.Hour,
		MaxDelay:     time.Hour,
		WindowBudget: time.Millisecond,
		Sleep:        fakeClock(&delays),
	})
	_, err := rs.Truth(1)
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("err = %v, want retry-budget exhaustion", err)
	}
	if src.calls != 1 || len(delays) != 0 {
		t.Errorf("calls=%d sleeps=%d — budget did not stop the backoff", src.calls, len(delays))
	}
	if rs.Exhausted() != 1 {
		t.Errorf("exhausted = %d, want 1", rs.Exhausted())
	}
}

func TestRetryAbortsOnContextCancel(t *testing.T) {
	var delays []time.Duration
	var retries atomic.Int64
	src := &flakyReader{failures: 100, err: errors.New("outage")}
	rs := NewRetrySource(readerSource(src), RetryConfig{Sleep: fakeClock(&delays), OnRetry: func(string, int, time.Duration, error) { retries.Add(1) }})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rs.WithContext(ctx).Truth(1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.calls != 1 {
		t.Errorf("calls = %d, want 1 (no retries against a dead context)", src.calls)
	}
	if retries.Load() != 1 {
		// The retry was observed before the aborted sleep; the context view
		// shares the parent's config.
		t.Errorf("retries = %d, want 1", retries.Load())
	}
}

// countingReader fails chosen tables a set number of times each.
type countingReader struct {
	inner    features.TableReader
	mu       sync.Mutex
	failLeft map[string]int
}

func (r *countingReader) ReadMonths(name string, months []int) (*table.Table, error) {
	r.mu.Lock()
	fail := r.failLeft[name] > 0
	if fail {
		r.failLeft[name]--
	}
	r.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("injected outage on %s", name)
	}
	return r.inner.ReadMonths(name, months)
}

// TestRetrySourcePerTable: only the flaky table retries — and a table that
// stays down past its attempts degrades instead of failing the window.
func TestRetrySourcePerTable(t *testing.T) {
	wh, cfg := diskWorld(t)
	src := NewWarehouseSource(wh, cfg.DaysPerMonth)
	win := features.MonthWindow(1, cfg.DaysPerMonth)

	var delays []time.Duration
	var retries atomic.Int64
	flaky := &countingReader{inner: wh, failLeft: map[string]int{synth.TableWeb: 2}}
	rs := NewRetrySource(readerSource(flaky), RetryConfig{Sleep: fakeClock(&delays), OnRetry: func(string, int, time.Duration, error) { retries.Add(1) }})
	tbl, err := rs.Tables(win)
	if err != nil {
		t.Fatalf("Tables with transient web outage: %v", err)
	}
	if retries.Load() != 2 {
		t.Errorf("retries = %d, want 2 (only web retried)", retries.Load())
	}
	want, err := src.Tables(win)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Web.NumRows() != want.Web.NumRows() || tbl.Calls.NumRows() != want.Calls.NumRows() {
		t.Error("retried load differs from healthy load")
	}

	// A persistent outage exhausts retries, then degrades.
	flaky.failLeft = map[string]int{synth.TableSearch: 1 << 30}
	rs = NewRetrySource(readerSource(flaky), RetryConfig{MaxAttempts: 2, Sleep: fakeClock(&delays)})
	tbl, missing, err := features.LoadTables(rs.ShardReader(-1), win, cfg.DaysPerMonth, false, 2)
	if err != nil {
		t.Fatalf("LoadTables: %v", err)
	}
	if len(missing) != 1 || missing[0] != synth.TableSearch {
		t.Errorf("missing = %v, want [search]", missing)
	}
	if tbl.Search.NumRows() != 0 {
		t.Error("search stand-in is not empty")
	}
	if rs.Exhausted() != 1 {
		t.Errorf("exhausted = %d, want 1", rs.Exhausted())
	}
}
