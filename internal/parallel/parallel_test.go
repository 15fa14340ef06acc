package parallel

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForZeroItems(t *testing.T) {
	called := false
	For(4, 0, func(i int) { called = true })
	For(4, -3, func(i int) { called = true })
	if called {
		t.Error("fn called for empty range")
	}
}

func TestForOneWorkerRunsSequentially(t *testing.T) {
	var order []int
	For(1, 100, func(i int) { order = append(order, i) })
	if len(order) != 100 {
		t.Fatalf("ran %d items, want 100", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("one-worker execution out of order at %d: %d", i, v)
		}
	}
}

func TestForCoversEveryItemExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{1, 2, 255, 256, 257, 1000} {
			counts := make([]int64, n)
			For(workers, n, func(i int) { atomic.AddInt64(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: item %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForGrainSmallGrain(t *testing.T) {
	counts := make([]int64, 100)
	ForGrain(8, 100, 1, func(i int) { atomic.AddInt64(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("item %d ran %d times", i, c)
		}
	}
}

func TestForWorkerCountBounded(t *testing.T) {
	var peak, cur int64
	ForGrain(3, 1000, 1, func(i int) {
		c := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if c <= p || atomic.CompareAndSwapInt64(&peak, p, c) {
				break
			}
		}
		runtime.Gosched()
		atomic.AddInt64(&cur, -1)
	})
	if peak > 3 {
		t.Errorf("observed %d concurrent workers, cap is 3", peak)
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was swallowed")
		}
		if !strings.Contains(r.(string), "boom-42") {
			t.Fatalf("panic value %v does not carry the original payload", r)
		}
	}()
	For(4, 100, func(i int) {
		if i == 42 {
			panic("boom-42")
		}
	})
}

func TestMapChunksDeterministicOrder(t *testing.T) {
	// Chunk results must land at chunk index regardless of worker count.
	want := MapChunks(1, 1000, 64, func(lo, hi int) int { return lo })
	for _, workers := range []int{2, 4, 16} {
		got := MapChunks(workers, 1000, 64, func(lo, hi int) int { return lo })
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d chunks, want %d", workers, len(got), len(want))
		}
		for c := range got {
			if got[c] != want[c] {
				t.Fatalf("workers=%d chunk %d starts at %d, want %d", workers, c, got[c], want[c])
			}
		}
	}
}

func TestMapChunksCoversRangeExactly(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		spans := MapChunks(4, n, 64, func(lo, hi int) [2]int { return [2]int{lo, hi} })
		next := 0
		for _, s := range spans {
			if s[0] != next || s[1] <= s[0] {
				t.Fatalf("n=%d: bad chunk %v after %d", n, s, next)
			}
			next = s[1]
		}
		if next != n && n > 0 {
			t.Fatalf("n=%d: chunks cover up to %d", n, next)
		}
		if n <= 0 && spans != nil {
			t.Fatalf("n=%d: want nil chunk list", n)
		}
	}
}

func TestSumChunksMatchesSequentialSum(t *testing.T) {
	vals := make([]float64, 10000)
	for i := range vals {
		// Spread magnitudes so float addition order matters.
		vals[i] = float64(i%97) * 1e-3 * float64(1+i%13)
	}
	ref := SumChunks(1, len(vals), 128, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	})
	for _, workers := range []int{2, 4, 8} {
		got := SumChunks(workers, len(vals), 128, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		})
		if got != ref {
			t.Fatalf("workers=%d: sum %v != sequential %v (not bit-identical)", workers, got, ref)
		}
	}
}

func TestDoRunsAllTasks(t *testing.T) {
	var ran [3]int64
	Do(2,
		func() { atomic.AddInt64(&ran[0], 1) },
		func() { atomic.AddInt64(&ran[1], 1) },
		func() { atomic.AddInt64(&ran[2], 1) },
	)
	for i, c := range ran {
		if c != 1 {
			t.Errorf("task %d ran %d times", i, c)
		}
	}
	Do(4) // zero tasks is a no-op
}

// TestDoOverlapsTasks fails by deadlock (test timeout) unless two tasks run
// at the same time: each waits for the other to start.
func TestDoOverlapsTasks(t *testing.T) {
	a, b := make(chan struct{}), make(chan struct{})
	Do(2,
		func() { close(a); <-b },
		func() { close(b); <-a },
	)
}

// TestMapChunksOverlapsChunks is the same check for a two-chunk MapChunks:
// few chunks must still spread across workers.
func TestMapChunksOverlapsChunks(t *testing.T) {
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	got := MapChunks(2, 20, 10, func(lo, hi int) int {
		c := lo / 10
		close(started[c])
		<-started[1-c]
		return hi - lo
	})
	if len(got) != 2 || got[0] != 10 || got[1] != 10 {
		t.Fatalf("chunk sizes %v, want [10 10]", got)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Error("non-positive should resolve to GOMAXPROCS")
	}
	if Workers(7) != 7 {
		t.Error("positive count should pass through")
	}
}

func TestSeedStreamsDiffer(t *testing.T) {
	seen := make(map[int64]bool)
	for stream := int64(0); stream < 1000; stream++ {
		s := Seed(1, stream)
		if seen[s] {
			t.Fatalf("seed collision at stream %d", stream)
		}
		seen[s] = true
	}
	if Seed(1, 5) != Seed(1, 5) {
		t.Error("Seed is not deterministic")
	}
	if Seed(1, 5) == Seed(2, 5) {
		t.Error("different bases should give different streams")
	}
}
