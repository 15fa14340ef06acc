package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"sync/atomic"
	"time"

	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/table"
)

// RetryConfig tunes RetrySource. Zero values mean defaults.
type RetryConfig struct {
	// MaxAttempts bounds tries per operation, including the first
	// (default 4).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 50ms); subsequent steps
	// double up to MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// WindowBudget is the per-window retry deadline: one window load,
	// strict or degraded — across every per-table retry it performs — never
	// spends longer than this backing off (default 30s). Zero-delay
	// attempts themselves are not preempted.
	WindowBudget time.Duration
	// Seed keys the jitter stream: the same seed and call sequence yields
	// the same backoff schedule, so failure timelines reproduce in tests.
	Seed int64
	// Retryable classifies errors; nil means the default policy: retry
	// everything except missing partitions (deterministically absent),
	// corrupt files (deterministically broken), and context errors.
	Retryable func(error) bool
	// OnRetry, if set, observes every backoff (for retry counters/logs).
	OnRetry func(op string, attempt int, delay time.Duration, err error)
	// Sleep is the backoff clock (default time.Sleep; tests inject a fake).
	Sleep func(time.Duration)

	// realClock records whether Sleep defaulted to time.Sleep; only the
	// real clock is raced against the context (an injected fake is assumed
	// non-blocking and is called directly).
	realClock bool
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 4
	}
	if c.BaseDelay == 0 {
		c.BaseDelay = 50 * time.Millisecond
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 2 * time.Second
	}
	if c.WindowBudget == 0 {
		c.WindowBudget = 30 * time.Second
	}
	if c.Retryable == nil {
		c.Retryable = DefaultRetryable
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
		c.realClock = true
	}
	return c
}

// DefaultRetryable is the default transient-error policy: a missing
// partition or a corrupt file will not heal by retrying, and a dead context
// must not be retried against; everything else (I/O hiccups, injected
// transients) is worth another attempt.
func DefaultRetryable(err error) bool {
	switch {
	case errors.Is(err, fs.ErrNotExist),
		errors.Is(err, store.ErrCorrupt),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// RetrySource is a view of a Source whose every table read — whole-month,
// per-shard or truth — retries alone: seeded-jitter exponential backoff, a
// per-window retry budget, and context awareness via WithContext. One flaky
// feed does not force re-reading the healthy eight, and degraded assembly
// (BuildFrameDegraded) only gives a table up for imputation after its retries
// are exhausted. The embedded Source is the retrying view; pass it wherever
// a Source is wanted.
type RetrySource struct {
	Source
	inner Source
	cfg   RetryConfig
	ctx   context.Context

	exhausted *atomic.Uint64
}

// NewRetrySource wraps inner. Zero cfg fields take defaults.
func NewRetrySource(inner Source, cfg RetryConfig) *RetrySource {
	return (&RetrySource{
		inner:     inner,
		cfg:       cfg.withDefaults(),
		exhausted: &atomic.Uint64{},
	}).WithContext(context.Background())
}

// WithContext returns a view of the source whose backoff waits abort when
// ctx is done (counters are shared with the parent).
func (r *RetrySource) WithContext(ctx context.Context) *RetrySource {
	cp := *r
	cp.ctx = ctx
	// Every reader the view opens — one per window load, truth read or
	// shard — starts its own retry deadline.
	cp.Source = cp.inner.With(func(_, _ int, rd features.TableReader) features.TableReader {
		return retryingReader{r: rd, rs: &cp, deadline: time.Now().Add(cp.cfg.WindowBudget)}
	})
	return &cp
}

// Exhausted returns how many operations failed even after their last
// attempt (each of these surfaced an error or a degraded table upstream).
func (r *RetrySource) Exhausted() uint64 { return r.exhausted.Load() }

// jitter derives a deterministic backoff multiplier in [0.5, 1.5) from the
// retry site and attempt, so two runs with the same seed and failure
// pattern sleep identically.
func (r *RetrySource) jitter(op string, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", r.cfg.Seed, op, attempt)
	return 0.5 + float64(h.Sum64()%1000)/1000.0
}

// do runs f with retries under the window deadline.
func (r *RetrySource) do(op string, deadline time.Time, f func() error) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = f()
		if err == nil {
			return nil
		}
		if attempt >= r.cfg.MaxAttempts || !r.cfg.Retryable(err) {
			r.exhausted.Add(1)
			return err
		}
		step := r.cfg.BaseDelay << (attempt - 1)
		if step > r.cfg.MaxDelay || step <= 0 {
			step = r.cfg.MaxDelay
		}
		delay := time.Duration(float64(step) * r.jitter(op, attempt))
		if !deadline.IsZero() && time.Now().Add(delay).After(deadline) {
			r.exhausted.Add(1)
			return fmt.Errorf("core: retry budget for %s exhausted after %d attempts: %w", op, attempt, err)
		}
		if r.cfg.OnRetry != nil {
			r.cfg.OnRetry(op, attempt, delay, err)
		}
		if !r.sleep(delay) {
			r.exhausted.Add(1)
			return fmt.Errorf("core: retry of %s aborted: %w", op, context.Cause(r.ctx))
		}
	}
}

// sleep waits for d or the context, reporting false on abort.
func (r *RetrySource) sleep(d time.Duration) bool {
	select {
	case <-r.ctx.Done():
		return false
	default:
	}
	if !r.cfg.realClock {
		r.cfg.Sleep(d)
		select {
		case <-r.ctx.Done():
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.ctx.Done():
		return false
	}
}

// retryingReader retries each per-table read under a shared window
// deadline.
type retryingReader struct {
	r        features.TableReader
	rs       *RetrySource
	deadline time.Time
}

func (rr retryingReader) ReadMonths(name string, months []int) (*table.Table, error) {
	var t *table.Table
	err := rr.rs.do("read "+name, rr.deadline, func() error {
		var e error
		t, e = rr.r.ReadMonths(name, months)
		return e
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
