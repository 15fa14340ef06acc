// Package parallel is the shared worker-pool substrate of the pipeline —
// the single place deciding how the wide-table build, the graph algorithms,
// forest training and the experiment fan-out spread across cores (the role
// Spark's scheduler plays for the paper's platform).
//
// Every primitive is deterministic by construction: work is identified by
// item index (never by worker identity), chunk boundaries depend only on the
// problem size (never on the worker count), and chunked reductions merge in
// chunk order. Code built on this package therefore produces bit-identical
// results for any Workers setting, provided randomness is drawn from
// per-item streams keyed by item index rather than from a shared RNG.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values < 1 mean GOMAXPROCS.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// DefaultGrain is the chunk size used by For and the recommended grain for
// MapChunks when per-item work is small: large enough to amortize scheduling,
// small enough to balance skewed loads.
const DefaultGrain = 256

// For runs fn(i) for every i in [0, n) across at most `workers` goroutines
// (0 = GOMAXPROCS). Items are handed out as contiguous chunks through an
// atomic cursor, so heterogeneous item costs balance automatically; fn must
// only write to item-indexed state for results to be deterministic. A panic
// in any fn is captured and re-raised in the caller's goroutine.
func For(workers, n int, fn func(i int)) {
	ForGrain(workers, n, DefaultGrain, fn)
}

// ForGrain is For with an explicit chunk size (items claimed per cursor
// bump). Grain only affects scheduling, never results.
func ForGrain(workers, n, grain int, fn func(i int)) {
	if n <= 0 {
		return
	}
	// step is assigned exactly once so the worker closure captures it by
	// value: clamping grain in place would move it to the heap on every
	// call, including the inline (w <= 1) path serving requests take.
	step := max(grain, 1)
	w := Workers(workers)
	if w > (n+step-1)/step {
		w = (n + step - 1) / step
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		cursor int64
		wg     sync.WaitGroup
		pc     panicCatcher
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pc.recover()
			for {
				lo := int(atomic.AddInt64(&cursor, int64(step))) - step
				if lo >= n {
					return
				}
				hi := lo + step
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
	pc.repanic()
}

// MapChunks partitions [0, n) into fixed-size chunks of `grain` items —
// boundaries depend only on n and grain, never on the worker count — maps
// each chunk with fn, and returns the per-chunk results indexed by chunk.
// Reducing the returned slice left-to-right is therefore a deterministic
// merge for any Workers setting; this is the package's sharded map-reduce.
// Chunks are claimed one at a time: a chunk already amortizes scheduling,
// and For's default grain would run up to 256 of them on one goroutine.
func MapChunks[T any](workers, n, grain int, fn func(lo, hi int) T) []T {
	if n <= 0 {
		return nil
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	out := make([]T, chunks)
	ForGrain(workers, chunks, 1, func(c int) {
		lo := c * grain
		hi := lo + grain
		if hi > n {
			hi = n
		}
		out[c] = fn(lo, hi)
	})
	return out
}

// SumChunks runs a chunked float64 reduction over [0, n): fn sums its chunk,
// and the partials are folded in chunk order. The result is bit-identical
// for any worker count, unlike a naive atomic or per-worker accumulation.
func SumChunks(workers, n, grain int, fn func(lo, hi int) float64) float64 {
	total := 0.0
	for _, part := range MapChunks(workers, n, grain, fn) {
		total += part
	}
	return total
}

// Do runs the given independent tasks concurrently on at most `workers`
// goroutines and waits for all of them, re-raising the first panic. Tasks
// are claimed one at a time (grain 1): For's default grain would hand a
// handful of tasks to a single goroutine.
func Do(workers int, tasks ...func()) {
	ForGrain(workers, len(tasks), 1, func(i int) { tasks[i]() })
}

// panicCatcher captures the first panic among a group of goroutines so the
// pool can re-raise it on the caller's side instead of crashing the process
// from a worker.
type panicCatcher struct {
	once sync.Once
	val  any
	set  bool
}

func (p *panicCatcher) recover() {
	if r := recover(); r != nil {
		p.once.Do(func() {
			p.val = r
			p.set = true
		})
	}
}

func (p *panicCatcher) repanic() {
	if p.set {
		panic(fmt.Sprintf("parallel: worker panic: %v", p.val))
	}
}
