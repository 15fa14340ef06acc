// Package faults is a deterministic, seeded fault injector for the storage
// and source layers. Every decision — does this read fail transiently, is
// this partition missing, is this file corrupt, how much latency lands on
// this attempt, does this write crash — is a pure function of (seed, site,
// attempt), so a failure schedule observed once reproduces exactly from its
// seed: chaos tests are property tests, not flake generators.
//
// The injector interposes at the same seams production resilience hooks
// into: it wraps a features.TableReader (Reader; Wrap interposes it on
// every reader a core.Source opens), and plugs into store.Warehouse via
// SetHook (I/O errors and simulated crash points around partition writes).
// Layering core.RetrySource above a faulty source exercises the full
// retry-then-degrade path.
package faults

import (
	"fmt"
	"hash/fnv"
	"io/fs"
	"sync"
	"time"

	"telcochurn/internal/core"
	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/table"
)

// Config sets per-fault-class rates in [0, 1]. The zero value injects
// nothing.
type Config struct {
	// Seed keys every decision. Two injectors with the same seed and config
	// produce identical fault schedules for identical call sequences.
	Seed int64
	// Transient is the per-attempt probability that a read fails with a
	// retryable error. Keyed by attempt, so a retry of the same site can
	// succeed — this is the class RetrySource absorbs.
	Transient float64
	// Missing is the per-(table, month) probability that a partition is
	// persistently absent (fs.ErrNotExist on every attempt). Retries cannot
	// heal it; degraded assembly imputes around it.
	Missing float64
	// Corrupt is the per-(table, month) probability that a partition is
	// persistently unreadable (store.ErrCorrupt on every attempt).
	Corrupt float64
	// CrashWrites is the per-write probability that a warehouse write — a
	// partition file or an event-log append, via WarehouseHook — simulates
	// a crash; the crash point cycles deterministically through mid-write,
	// before-rename and after-rename.
	CrashWrites float64
	// Latency is the maximum injected latency per read attempt; each
	// attempt sleeps a deterministic fraction of it. Zero disables.
	Latency time.Duration
	// Sleep is the latency clock (default time.Sleep; tests inject a fake).
	Sleep func(time.Duration)
}

// Counts reports how many faults of each class the injector has fired.
type Counts struct {
	Transients uint64
	Missing    uint64
	Corrupt    uint64
	Crashes    uint64
	Latencies  uint64
}

// Injector makes seeded fault decisions and counts what it fired.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	attempts map[string]int
	counts   Counts
}

// New returns an injector for the config.
func New(cfg Config) *Injector {
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Injector{cfg: cfg, attempts: make(map[string]int)}
}

// Counts returns a snapshot of the fired-fault counters.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// roll returns a deterministic uniform value in [0, 1) for the decision
// keyed by (seed, kind, site, attempt).
func (in *Injector) roll(kind, site string, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", in.cfg.Seed, kind, site, attempt)
	return float64(h.Sum64()%1_000_000) / 1_000_000
}

// nextAttempt increments and returns the per-site attempt counter (under mu).
func (in *Injector) nextAttempt(site string) int {
	in.attempts[site]++
	return in.attempts[site]
}

// readFault decides the fate of one read attempt over the given months.
// Persistent faults (missing, corrupt) are keyed per (site, month) with no
// attempt component: every retry sees the same outcome. Transient faults
// and latency are keyed per attempt.
func (in *Injector) readFault(site string, months []int) error {
	in.mu.Lock()
	attempt := in.nextAttempt(site)
	for _, m := range months {
		ms := fmt.Sprintf("%s:month=%d", site, m)
		if in.roll("missing", ms, 0) < in.cfg.Missing {
			in.counts.Missing++
			in.mu.Unlock()
			return fmt.Errorf("faults: %s: %w", ms, fs.ErrNotExist)
		}
		if in.roll("corrupt", ms, 0) < in.cfg.Corrupt {
			in.counts.Corrupt++
			in.mu.Unlock()
			return fmt.Errorf("faults: %s: %w", ms, store.ErrCorrupt)
		}
	}
	if in.roll("transient", site, attempt) < in.cfg.Transient {
		in.counts.Transients++
		in.mu.Unlock()
		return fmt.Errorf("faults: transient I/O error at %s (attempt %d)", site, attempt)
	}
	var sleep time.Duration
	if in.cfg.Latency > 0 {
		sleep = time.Duration(in.roll("latency", site, attempt) * float64(in.cfg.Latency))
		if sleep > 0 {
			in.counts.Latencies++
		}
	}
	in.mu.Unlock()
	if sleep > 0 {
		in.cfg.Sleep(sleep)
	}
	return nil
}

// WarehouseHook returns a store.Hook injecting faults at the warehouse's
// I/O seams: reads roll the transient/missing/corrupt classes; writes
// (partition files and event-log appends) roll CrashWrites and, when it
// fires, return a simulated *store.Crash whose point cycles
// deterministically.
func (in *Injector) WarehouseHook() store.Hook {
	return func(op store.Op, name string, month int) error {
		site := fmt.Sprintf("%s:%s", op, name)
		switch op {
		case store.OpWritePartition, store.OpAppendEvents:
			in.mu.Lock()
			attempt := in.nextAttempt(site)
			crash := in.roll("crash", site, attempt) < in.cfg.CrashWrites
			var point store.CrashPoint
			if crash {
				in.counts.Crashes++
				point = store.CrashPoint(in.roll("crash-point", site, attempt) * 3)
			}
			in.mu.Unlock()
			if crash {
				return &store.Crash{Point: point}
			}
			return nil
		default:
			return in.readFault(site, []int{month})
		}
	}
}

// Reader wraps a per-table reader with read faults.
type Reader struct {
	inner features.TableReader
	inj   *Injector
}

// ReadMonths implements features.TableReader.
func (r Reader) ReadMonths(name string, months []int) (*table.Table, error) {
	if err := r.inj.readFault("read:"+name, months); err != nil {
		return nil, err
	}
	return r.inner.ReadMonths(name, months)
}

// Wrap returns a faulty view of src: every read it serves — whole-month,
// per-shard and truth alike — rolls the injector's read faults, and window
// assembly goes through the standard loaders, so retry/degraded layers
// stacked above see exactly the per-table failures they would see in
// production.
func Wrap(src core.Source, inj *Injector) core.Source {
	return src.With(func(_, _ int, r features.TableReader) features.TableReader {
		return Reader{inner: r, inj: inj}
	})
}
