package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"telcochurn/internal/core"
	"telcochurn/internal/dataset"
	"telcochurn/internal/features"
	"telcochurn/internal/synth"
	"telcochurn/internal/tree"
)

// mapProvider is a deterministic in-memory Provider.
type mapProvider struct {
	vecs  map[int64][]float64
	calls atomic.Int64
}

func newMapProvider(n int) *mapProvider {
	p := &mapProvider{vecs: make(map[int64][]float64, n)}
	for i := 0; i < n; i++ {
		p.vecs[int64(i)] = []float64{float64(i), float64(i) * 0.5}
	}
	return p
}

func (p *mapProvider) Vector(id int64) ([]float64, bool) {
	p.calls.Add(1)
	v, ok := p.vecs[id]
	return v, ok
}

func (p *mapProvider) FeatureNames() []string { return []string{"a", "b"} }

func (p *mapProvider) IDs() []int64 {
	ids := make([]int64, 0, len(p.vecs))
	for id := range p.vecs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (p *mapProvider) Info() ProviderInfo { return ProviderInfo{Source: "map", Rows: len(p.vecs)} }

// sumClassifier scores each row as a pure per-row function, like every
// real classifier in the repo.
type sumClassifier struct {
	batches atomic.Int64
	entered chan struct{} // when non-nil, signals each ScoreAll entry
	gate    chan struct{} // when non-nil, ScoreAll blocks until the gate closes
}

func (c *sumClassifier) Fit(*dataset.Dataset) error { return nil }
func (c *sumClassifier) Name() string               { return "sum" }
func (c *sumClassifier) ScoreAll(x [][]float64) []float64 {
	if c.entered != nil {
		c.entered <- struct{}{}
	}
	if c.gate != nil {
		<-c.gate
	}
	c.batches.Add(1)
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = c.Score(row)
	}
	return out
}

func (c *sumClassifier) Score(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

func TestScorerUnknownCustomer(t *testing.T) {
	s := NewScorer(&sumClassifier{}, newMapProvider(3), Config{}, nil)
	defer s.Close()
	if _, err := s.Score(context.Background(), []int64{0, 99}); err == nil {
		t.Fatal("want error for unknown customer")
	}
	if got := s.metrics.Errors.Load(); got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
}

// TestScorerContextCancel: a context that is already done fails the call at
// entry with the context's error — the daemon's 504 — before any vector is
// looked up or scored.
func TestScorerContextCancel(t *testing.T) {
	clf := &sumClassifier{}
	prov := newMapProvider(10)
	s := NewScorer(clf, prov, Config{}, nil)
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Score(ctx, []int64{1, 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Score err = %v, want context.Canceled", err)
	}
	if _, err := s.ScoreOne(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScoreOne err = %v, want context.Canceled", err)
	}
	m := s.metrics
	if got := m.Canceled.Load(); got != 2 {
		t.Errorf("canceled = %d, want 2", got)
	}
	if m.Scored.Load() != 0 || clf.batches.Load() != 0 || prov.calls.Load() != 0 {
		t.Errorf("canceled calls did work: scored %d, classifier calls %d, lookups %d",
			m.Scored.Load(), clf.batches.Load(), prov.calls.Load())
	}
	if got := s.pending.Load(); got != 0 {
		t.Errorf("pending = %d after canceled calls, want 0", got)
	}
}

// TestScoreOneSinceBudget: a request found over its budget after the walk
// fails with context.DeadlineExceeded and counts as canceled, ahead of any
// other error; one within budget scores as ScoreOne does and is timed.
func TestScoreOneSinceBudget(t *testing.T) {
	s := NewScorer(&sumClassifier{}, newMapProvider(10), Config{}, nil)
	defer s.Close()
	ctx := context.Background()
	late := time.Now().Add(-time.Hour)
	for _, id := range []int64{3, 99} { // known, unknown
		if _, err := s.ScoreOneSince(ctx, id, late, time.Minute); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("id %d over budget: err = %v, want context.DeadlineExceeded", id, err)
		}
	}
	m := s.metrics
	if m.Requests.Load() != 2 || m.Canceled.Load() != 2 || m.Scored.Load() != 0 || m.Errors.Load() != 0 {
		t.Fatalf("over budget: requests %d canceled %d scored %d errors %d, want 2 2 0 0",
			m.Requests.Load(), m.Canceled.Load(), m.Scored.Load(), m.Errors.Load())
	}
	want, err := s.ScoreOne(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []time.Duration{0, time.Hour} {
		got, err := s.ScoreOneSince(ctx, 3, late.Add(30*time.Minute), budget)
		if err != nil || got != want {
			t.Fatalf("budget %v: %v, %v; want %v", budget, got, err, want)
		}
	}
	if got := m.LatencyNs.Snapshot()["count"]; got != uint64(3) {
		t.Errorf("latency observations = %v, want 3", got)
	}
}

// TestScorerQueueFull is the admission contract: QueueSize bounds the
// customer scores in flight, a request past the bound sheds with
// ErrQueueFull, one that could never fit fails with ErrTooManyIDs, and the
// bound is released on every exit — a leak on any of them would shed forever.
func TestScorerQueueFull(t *testing.T) {
	gate := make(chan struct{})
	clf := &sumClassifier{entered: make(chan struct{}, 8), gate: gate}
	s := NewScorer(clf, newMapProvider(100), Config{QueueSize: 4}, nil)
	ctx := context.Background()

	// Three scores park inside the classifier at the gate.
	done := make(chan error, 1)
	go func() {
		_, err := s.Score(ctx, []int64{1, 2, 3})
		done <- err
	}()
	<-clf.entered
	if got := s.pending.Load(); got != 3 {
		t.Fatalf("pending = %d with three scores in flight, want 3", got)
	}
	// Two more do not fit beside them: shed, and the failed admission
	// gives back what it took.
	if _, err := s.Score(ctx, []int64{4, 5}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := s.pending.Load(); got != 3 {
		t.Errorf("pending = %d after a shed request, want 3", got)
	}
	// A request larger than the bound is a different, non-retryable error.
	if _, err := s.Score(ctx, []int64{4, 5, 6, 7, 8}); !errors.Is(err, ErrTooManyIDs) || errors.Is(err, ErrQueueFull) {
		t.Errorf("oversized request err = %v, want ErrTooManyIDs", err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Errorf("in-flight request: %v", err)
	}

	// Release on the failure exits: an unknown id mid-way, then ErrClosed.
	// After each, a request of the full bound must still be admitted.
	full := []int64{1, 2, 3, 4}
	if _, err := s.Score(ctx, []int64{1, 2, 999, 3}); !errors.Is(err, ErrUnknownCustomer) {
		t.Fatalf("err = %v, want ErrUnknownCustomer", err)
	}
	if got := s.pending.Load(); got != 0 {
		t.Errorf("pending = %d after an unknown-customer failure, want 0", got)
	}
	if _, err := s.Score(ctx, full); err != nil {
		t.Errorf("full-bound request after an unknown-customer failure: %v", err)
	}
	s.Close()
	if _, err := s.Score(ctx, full); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if got := s.pending.Load(); got != 0 {
		t.Errorf("pending = %d after ErrClosed, want 0", got)
	}
	if got := s.metrics.QueueFull.Load(); got != 1 {
		t.Errorf("queue_full = %d, want 1 (only the shed request counts)", got)
	}
}

func TestScorerClosed(t *testing.T) {
	s := NewScorer(&sumClassifier{}, newMapProvider(10), Config{}, nil)
	out, err := s.Score(context.Background(), []int64{1, 2})
	if err != nil || len(out) != 2 {
		t.Fatalf("score before close: %v %v", out, err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Score(context.Background(), []int64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestCacheTTL(t *testing.T) {
	prov := newMapProvider(10)
	m := &Metrics{}
	c := NewCache(prov, time.Minute, m)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	v1, ok := c.Vector(3)
	if !ok || v1[0] != 3 {
		t.Fatalf("miss fetch: %v %v", v1, ok)
	}
	if _, ok := c.Vector(3); !ok {
		t.Fatal("hit fetch failed")
	}
	if prov.calls.Load() != 1 {
		t.Errorf("provider calls = %d, want 1 (second read cached)", prov.calls.Load())
	}
	if m.CacheHits.Load() != 1 || m.CacheMisses.Load() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", m.CacheHits.Load(), m.CacheMisses.Load())
	}

	// Past the TTL the entry is refetched.
	now = now.Add(2 * time.Minute)
	if _, ok := c.Vector(3); !ok {
		t.Fatal("post-expiry fetch failed")
	}
	if prov.calls.Load() != 2 {
		t.Errorf("provider calls = %d, want 2 after expiry", prov.calls.Load())
	}

	// Unknown customers are not cached.
	if _, ok := c.Vector(404); ok {
		t.Fatal("unknown customer resolved")
	}
	if c.Len() != 1 {
		t.Errorf("cache len = %d, want 1", c.Len())
	}
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("cache len after purge = %d", c.Len())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if got := h.count.Load(); got != 5 {
		t.Errorf("count = %d", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 2 || p50 > 4 {
		t.Errorf("p50 = %v, want within bucket of 3", p50)
	}
	if max := h.Quantile(1); max < 512 || max > 1024 {
		t.Errorf("p100 = %v, want within bucket of 1000", max)
	}
	snap := h.Snapshot()
	if snap["max"].(uint64) != 1000 {
		t.Errorf("max = %v", snap["max"])
	}
}

// TestServeMatchesPipelinePredict is the determinism contract end to end:
// a real pipeline, served off the warehouse frame through the TTL cache in
// many small concurrent requests, must emit bit-identical scores to one
// batch Pipeline.Predict call over the same window.
func TestServeMatchesPipelinePredict(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Customers = 300
	cfg.Months = 4
	cfg.Seed = 11
	months := synth.Simulate(cfg)
	src := core.NewMemorySource(months, cfg.DaysPerMonth)
	pipe, err := core.Fit(src, []core.WindowSpec{core.MonthSpec(2, cfg.DaysPerMonth)}, core.Config{
		Forest: tree.ForestConfig{NumTrees: 10, MinLeafSamples: 10, Seed: 1},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	win := features.MonthWindow(3, cfg.DaysPerMonth)
	want, err := pipe.Predict(src, win)
	if err != nil {
		t.Fatal(err)
	}
	wantByID := make(map[int64]float64, len(want.IDs))
	for i, id := range want.IDs {
		wantByID[id] = want.Scores[i]
	}

	prov, err := NewFrameProvider(pipe, src, win)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScorer(pipe.Classifier(), NewCache(prov, time.Minute, nil), Config{}, nil)
	defer s.Close()

	ids := prov.IDs()
	var wg sync.WaitGroup
	var failed atomic.Int64
	const chunk = 17
	for start := 0; start < len(ids); start += chunk {
		end := start + chunk
		if end > len(ids) {
			end = len(ids)
		}
		wg.Add(1)
		go func(part []int64) {
			defer wg.Done()
			out, err := s.Score(context.Background(), part)
			if err != nil {
				failed.Add(1)
				return
			}
			for i, id := range part {
				if out[i] != wantByID[id] {
					failed.Add(1)
					return
				}
			}
		}(ids[start:end])
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatal("served scores diverged from batch Pipeline.Predict")
	}
}

// servingFixture fits a pipeline, precomputes its serving vectors, and
// returns the artifact's snapshot — what churnd serves without a warehouse
// — with the batch Pipeline.Predict output over the same window.
func servingFixture(tb testing.TB, trees int) (*core.Pipeline, *Snapshot, *core.Predictions) {
	tb.Helper()
	cfg := synth.DefaultConfig()
	cfg.Customers = 400
	cfg.Months = 4
	cfg.Seed = 11
	months := synth.Simulate(cfg)
	src := core.NewMemorySource(months, cfg.DaysPerMonth)
	pipe, err := core.Fit(src, []core.WindowSpec{core.MonthSpec(2, cfg.DaysPerMonth)}, core.Config{
		Forest: tree.ForestConfig{NumTrees: trees, MinLeafSamples: 10, Seed: 1},
		Seed:   1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	win := features.MonthWindow(3, cfg.DaysPerMonth)
	if err := pipe.Precompute(src, win, 3); err != nil {
		tb.Fatal(err)
	}
	prov, err := NewVectorsProvider(pipe)
	if err != nil {
		tb.Fatal(err)
	}
	want, err := pipe.Predict(src, win)
	if err != nil {
		tb.Fatal(err)
	}
	return pipe, prov, want
}

// TestScoreOneFastPath: ScoreOne (SingleScorer over precomputed vectors)
// returns bit-identical scores to a whole-base Score call and to
// PredictVectors, and allocates nothing per call; a 64-id Score allocates
// only its vector and result slices plus the classifier's fan-out closure.
func TestScoreOneFastPath(t *testing.T) {
	pipe, prov, _ := servingFixture(t, 10)
	want, err := pipe.PredictVectors()
	if err != nil {
		t.Fatal(err)
	}
	s := NewScorer(pipe.Classifier(), prov, Config{}, nil)
	defer s.Close()
	ctx := context.Background()
	for i, id := range want.IDs {
		got, err := s.ScoreOne(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Scores[i] {
			t.Fatalf("ScoreOne(%d) = %v, want %v", id, got, want.Scores[i])
		}
	}
	// Multi-id requests agree with ScoreOne.
	out, err := s.Score(ctx, want.IDs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.IDs {
		if out[i] != want.Scores[i] {
			t.Fatalf("batched score %d diverged from PredictVectors", i)
		}
	}
	if _, err := s.ScoreOne(ctx, -999); !errors.Is(err, ErrUnknownCustomer) {
		t.Fatalf("unknown customer err = %v", err)
	}

	id := want.IDs[0]
	if n := testing.AllocsPerRun(300, func() {
		if _, err := s.ScoreOne(ctx, id); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ScoreOne allocates %.1f/op, want 0", n)
	}
	batch := want.IDs[:64]
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.Score(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("64-id Score allocates %.1f/op, want <= 3", n)
	}
}

// TestFallbackProvider: the precomputed matrix wins when it knows the
// customer; everyone else falls through to the secondary.
func TestFallbackProvider(t *testing.T) {
	primary := newMapProvider(3) // ids 0..2
	secondary := &mapProvider{vecs: map[int64][]float64{
		1:  {9, 9}, // shadowed by primary
		50: {5, 5},
	}}
	fp, err := NewFallbackProvider(primary, secondary)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := fp.Vector(1); !ok || v[0] != 1 {
		t.Fatalf("primary not preferred: %v %v", v, ok)
	}
	if v, ok := fp.Vector(50); !ok || v[0] != 5 {
		t.Fatalf("fallback failed: %v %v", v, ok)
	}
	if _, ok := fp.Vector(404); ok {
		t.Fatal("unknown customer resolved")
	}
	if _, err := NewFallbackProvider(primary, nil); err == nil {
		t.Fatal("nil secondary accepted")
	}
}

// TestScoreEquivalence is the one-path contract on the real fixture: however
// a customer's score is asked for — inside a Score request of any size
// (below and above the classifier's parallel fan-out grain, ids repeating),
// from many callers at once, or through ScoreOne — it is Float64bits-equal
// to batch Pipeline.Predict over the same window.
func TestScoreEquivalence(t *testing.T) {
	pipe, prov, want := servingFixture(t, 10)
	wantBits := make(map[int64]uint64, len(want.IDs))
	for i, id := range want.IDs {
		wantBits[id] = math.Float64bits(want.Scores[i])
	}
	const callers = 16
	sizes := []int{1, 2, 64, 257}
	// Room for every caller's largest request at once, so none is shed.
	queue := callers * sizes[len(sizes)-1]
	s := NewScorer(pipe.Classifier(), prov, Config{QueueSize: queue}, nil)
	defer s.Close()

	ids := prov.IDs()
	ctx := context.Background()
	request := func(caller, size int) []int64 {
		req := make([]int64, size)
		for i := range req {
			req[i] = ids[(caller*31+i*7)%len(ids)]
		}
		return req
	}
	check := func(req []int64) error {
		out, err := s.Score(ctx, req)
		if err != nil {
			return err
		}
		if len(out) != len(req) {
			return fmt.Errorf("%d scores for %d ids", len(out), len(req))
		}
		for i, id := range req {
			one, err := s.ScoreOne(ctx, id)
			if err != nil {
				return err
			}
			if got := math.Float64bits(out[i]); got != wantBits[id] {
				return fmt.Errorf("Score(%d ids)[%d] for customer %d = %x, Predict %x", len(req), i, id, got, wantBits[id])
			}
			if got := math.Float64bits(one); got != wantBits[id] {
				return fmt.Errorf("ScoreOne(%d) = %x, Predict %x", id, got, wantBits[id])
			}
		}
		return nil
	}

	scored := 0
	for _, size := range sizes {
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = check(request(g, size))
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("size %d, caller %d: %v", size, g, err)
			}
		}
		scored += callers * size * 2 // once by Score, once by ScoreOne
	}
	// The largest admissible request, alone.
	if err := check(request(0, queue)); err != nil {
		t.Fatalf("size %d (QueueSize): %v", queue, err)
	}
	scored += queue * 2

	m := s.metrics
	if got := m.Scored.Load(); got != uint64(scored) {
		t.Errorf("scored = %d, want %d", got, scored)
	}
	if m.Errors.Load() != 0 || m.QueueFull.Load() != 0 {
		t.Errorf("errors/queue_full = %d/%d, want 0/0", m.Errors.Load(), m.QueueFull.Load())
	}
	if got := s.pending.Load(); got != 0 {
		t.Errorf("pending = %d at rest, want 0", got)
	}
}

// BenchmarkServeScore reports serving latency in the production churnd
// configuration — precomputed feature vectors plus flat forests:
// "single" issues one-customer ScoreOne calls (the 0 allocs/op contract
// lives here), "batch64" issues 64-customer Score calls. p50-ns/req is read
// off the latency histogram at the end of each run.
func BenchmarkServeScore(b *testing.B) {
	pipe, prov, _ := servingFixture(b, 50)
	ids := prov.IDs()

	b.Run("single", func(b *testing.B) {
		s := NewScorer(pipe.Classifier(), prov, Config{}, nil)
		defer s.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.ScoreOne(ctx, ids[i%len(ids)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(s.metrics.LatencyNs.Quantile(0.5), "p50-ns/req")
		b.ReportMetric(1, "req-size")
	})
	b.Run("batch64", func(b *testing.B) {
		s := NewScorer(pipe.Classifier(), prov, Config{}, nil)
		defer s.Close()
		ctx := context.Background()
		req := make([]int64, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range req {
				req[j] = ids[(i*64+j)%len(ids)]
			}
			if _, err := s.Score(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(s.metrics.LatencyNs.Quantile(0.5), "p50-ns/req")
		b.ReportMetric(64, "req-size")
	})
}
