package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"telcochurn/internal/features"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianQuantileSpread(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	if got := quantile(xs, 0.99); !near(got, 49.6) {
		t.Errorf("p99 = %v, want 49.6", got)
	}
	if got := quantile(xs, 0); got != 10 {
		t.Errorf("p0 = %v, want 10", got)
	}
	// Reference values are Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(tc.data)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 30, Parent: 0},
		{Name: "b", StartNs: 20, EndNs: 50, Parent: 0},  // overlaps a: union 10..50
		{Name: "c", StartNs: 60, EndNs: 120, Parent: 0}, // clipped to the parent: 60..100
		{Name: "a1", StartNs: 12, EndNs: 17, Parent: 1},
	}
	want := []int64{100 - 40 - 40, 20 - 5, 30, 60, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	ran := false
	if d := tr.in("x", -1, func(id int) { ran = id == -1 }); d < 0 || !ran {
		t.Errorf("nil tracer: ran=%v d=%v", ran, d)
	}
	tr = newTracer("w")
	tr.in("outer", -1, func(id int) { tr.in("inner", id, func(int) {}) })
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].EndNs < tr.spans[1].EndNs {
		t.Errorf("spans = %+v", tr.spans)
	}
}

func newTestRun(t *testing.T, workload string, traced bool, sz sizing) *run {
	t.Helper()
	r, err := newRun(workload, 7, 0.8, traced, t.TempDir(), sz)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFailedOperationAccounting(t *testing.T) {
	r := newTestRun(t, "serve_read", false, sizing{})
	if r.result().Correct {
		t.Error("a run that attempted nothing must not be correct")
	}
	r.op(true, "")
	r.set("main_ms", 1.5)
	if res := r.result(); !res.Correct || res.Attempted != 1 || res.Failed != 0 || res.Metrics["main_ms"].Value != 1.5 {
		t.Errorf("result = %+v", res)
	}
	if len(r.result().Metrics) != len(endToEnd) {
		t.Errorf("gated run reports %d metrics, want every end-to-end metric (%d)", len(r.result().Metrics), len(endToEnd))
	}
	r.op(false, "expected test failure %d", 1)
	if res := r.result(); res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("after a failure: %+v", res)
	}

	// A non-2xx reply is a failed operation and yields no latency sample.
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.Add(1)%3 == 0 {
			http.Error(w, `{"error":{"code":"overloaded"}}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"score":0.5}`))
	}))
	defer srv.Close()
	r = newTestRun(t, "serve_read", false, sizing{})
	sent := 0
	samples := r.closedLoop([]*conn{newConn(srv.URL, time.Second)}, [][]byte{[]byte(`{"id":1}`)}, "http.score", false,
		func(time.Duration) bool { sent++; return sent > 9 })
	if r.attempted.Load() != 9 || r.failed.Load() != 3 || len(samples) != 6 {
		t.Errorf("attempted %d failed %d samples %d, want 9 3 6", r.attempted.Load(), r.failed.Load(), len(samples))
	}
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the harness's
// metric tables in step.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(bf.Workloads), len(workloadOrder))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadOrder[i] || workloads[w.Name] == nil {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadOrder[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != endToEnd[i] {
			t.Errorf("end-to-end %d: %v in BENCHMARK.json, %v in the harness", i, got, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != perLayer[i] {
			t.Errorf("per-layer %d: %v in BENCHMARK.json, %v in the harness", i, got, perLayer[i])
		}
	}
}

// toySizing shrinks a workload to a smoke test: 300 customers, one set-up,
// two repetitions, and (with --seconds 0.8) 0.15 s segments.
func toySizing(workload string) sizing {
	sz := sizeFor(workload)
	sz.customers, sz.trees, sz.calibN, sz.setups, sz.minReps = 300, 10, 10_000, 1, 2
	if sz.shards > 1 {
		sz.shards = 4
	}
	if sz.segsA > 0 {
		sz.segsA, sz.segsB, sz.chunk, sz.minRefreshes = 2, 1, 10, 2
	}
	return sz
}

// TestSmokeAllWorkloads runs every workload, gated and traced, at toy size:
// it keeps the harness compiling against the repository and its output
// checks passing without paying for real timings.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds churnd and runs all four workloads")
	}
	churnd := filepath.Join(t.TempDir(), "churnd")
	build := exec.Command("go", "build", "-o", churnd, "./cmd/churnd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build churnd: %v\n%s", err, out)
	}
	// Layers each workload must report a non-zero figure for when traced.
	layers := map[string][]string{
		"batch_train":   {"core.fit_ms", "core.fit_coverage", "tree.forest_fit_ms", "graph.pagerank_ms", "fm.fit_ms", "topic.lda_fit_ms", "store.read_mb_per_s"},
		"batch_sharded": {"features.sharded_build_ms", "features.graph_accumulate_ms", "store.shard_read_ms", "tree.score_all_ms"},
		"serve_read":    {"serve.score_one_ns", "churnd.http_overhead_us", "churnd.boot_ready_ms", "core.artifact_load_ms", "score_p99_ms", "batch_p50_ms"},
		"serve_ingest":  {"store.eventlog_append_ms", "core.incremental_refresh_us", "churnd.refresh_took_ms", "store.eventlog_merge_ms", "score_p50_ms", "ingest_events_per_s"},
	}
	begin := time.Now()
	for _, w := range workloadOrder {
		for _, traced := range []bool{false, true} {
			r := newTestRun(t, w, traced, toySizing(w))
			r.churnd = churnd
			err := workloads[w](r)
			if r.child != nil {
				r.child.stop()
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			res := r.result()
			if !res.Correct {
				t.Errorf("%s traced=%v: %d of %d operations failed", w, traced, res.Failed, res.Attempted)
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, name, m.Value)
					}
				}
				continue
			}
			for _, name := range append(layers[w], "synth.generate_s", "store.write_partition_ms", "harness.calib_ms", "procstat.peak_rss_mb") {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: per-layer metric %s = %v, want a measurement", w, name, res.Metrics[name].Value)
				}
			}
			out := filepath.Join(t.TempDir(), "trace.json")
			if err := r.tr.write(out); err != nil {
				t.Errorf("%s: write trace: %v", w, err)
			} else if info, err := os.Stat(out); err != nil || info.Size() == 0 {
				t.Errorf("%s: empty trace file (%v)", w, err)
			}
		}
	}
	if d := time.Since(begin); d > 15*time.Second && !raceEnabled {
		t.Errorf("smoke test took %v, budget 15 s", d)
	}
}

func TestToySizingStaysSmall(t *testing.T) {
	for _, w := range workloadOrder {
		sz := toySizing(w)
		if sz.customers > 300 || sz.minReps > 2 {
			t.Errorf("%s: toy sizing %+v exceeds 300 customers / 2 repetitions", w, sz)
		}
		if len(sz.groups) == 0 {
			t.Errorf("%s: no feature groups", w)
		}
	}
	if got := len(sizeFor("batch_train").groups); got != len(features.AllGroups()) {
		t.Errorf("batch_train builds %d groups, want all %d", got, len(features.AllGroups()))
	}
}
