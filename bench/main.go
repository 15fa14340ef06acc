// Command bench is the repository's benchmark: it runs one workload per
// invocation, prints every metric by name with its unit, checks the
// outputs, and reports operations attempted and failed. See README.md for
// the workloads, the metric definitions and the calibration rule.
//
//	bash bench/run.sh --workload batch_train --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh --repeat 5 --sets 2        # calibration table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step).
type metricDef struct{ name, unit, better string }

// endToEnd are the gated metrics. The driver wants every workload to print
// every one, so they are named by role; README.md tabulates what "main" and
// "side" are on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"main_ms", "ms", "lower"},
	{"side_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var workloads = map[string]func(*run) error{
	"batch_train":   batchTrain,
	"batch_sharded": batchSharded,
	"serve_read":    serveRead,
	"serve_ingest":  serveIngest,
}

var workloadOrder = []string{"batch_train", "batch_sharded", "serve_read", "serve_ingest"}

// run is the state of one workload execution.
type run struct {
	workload string
	seed     int64
	seconds  float64
	sz       sizing
	tr       *tracer // nil on the untraced run
	dir      string  // this run's scratch directory, removed on exit
	churnd   string  // path of the built churnd binary

	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	values map[string]float64   // metric name -> value
	obs    map[string][]float64 // timed call name -> wall times in ms
	child  *child               // live churnd, for the signal handler to reap

	lastCalib float64 // wall time (ms) of the latest calibration shot
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

// op counts one operation; a false ok counts it as failed and says why
// (the first few times).
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if ok {
		return
	}
	if n := r.failed.Add(1); n <= 5 {
		fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
	}
}

// timed runs f inside a span named name under parent, records its wall
// time (ms) under the same name, and returns it. Recording happens on
// every run so traced and untraced runs execute the same harness code.
func (r *run) timed(name string, parent int, f func(id int)) float64 {
	ms := float64(r.tr.in(name, parent, f)) / 1e6
	r.mu.Lock()
	r.obs[name] = append(r.obs[name], ms)
	r.mu.Unlock()
	return ms
}

// med is the median wall time (ms) of the calls timed under name.
func (r *run) med(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.obs[name])
}

// record appends one observation (ms) under name.
func (r *run) record(name string, ms float64) {
	r.mu.Lock()
	r.obs[name] = append(r.obs[name], ms)
	r.mu.Unlock()
}

// untilDeadline calls rep until both at least min repetitions have run and
// the time budget is spent: the budget sets the run length, the floor keeps
// enough samples behind every median on a slow host.
func untilDeadline(budget float64, min int, rep func(i int) error) error {
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for i := 0; i < min || time.Now().Before(deadline); i++ {
		if err := rep(i); err != nil {
			return err
		}
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	runtime.GOMAXPROCS(2) // pinned: the reference box has 2 cores and so does the child
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: batch_train, batch_sharded, serve_read, serve_ingest")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 16, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
	repeat := fs.Int("repeat", 0, "calibration: run every workload this many times per set and print the spread table")
	sets := fs.Int("sets", 2, "calibration: number of sets")
	fs.Parse(os.Args[1:])

	if *repeat > 0 {
		os.Exit(calibrate(*repeat, *sets, *seed, *seconds))
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, workloadOrder)
		os.Exit(2)
	}
	r, err := newRun(*workload, *seed, *seconds, *trace == 1, buildDir, sizeFor(*workload))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(r.execute(fn))
}

// buildDir is where run.sh puts the binaries and where run directories and
// trace files go, relative to the repository root the harness runs from.
const buildDir = "bench/.build"

// newRun prepares a run whose scratch directory lives under build.
func newRun(workload string, seed int64, seconds float64, traced bool, build string, sz sizing) (*run, error) {
	abs, err := filepath.Abs(build)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(abs, "run-")
	if err != nil {
		return nil, err
	}
	r := &run{
		workload: workload, seed: seed, seconds: seconds, sz: sz, dir: dir,
		churnd: filepath.Join(abs, "bin", "churnd"),
		values: map[string]float64{}, obs: map[string][]float64{},
	}
	if traced {
		r.tr = newTracer(workload)
	}
	return r, nil
}

// execute runs the workload under a watchdog and a signal handler that both
// reap the child and remove the run directory, prints the metrics, and
// returns the process exit code.
func (r *run) execute(fn func(*run) error) int {
	cleanup := func() {
		r.mu.Lock()
		c := r.child
		r.mu.Unlock()
		if c != nil {
			c.stop()
		}
		os.RemoveAll(r.dir)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	watchdog := time.AfterFunc(170*time.Second, func() { sig <- syscall.SIGALRM })
	done := make(chan error, 1)
	go func() { done <- fn(r) }()
	var err error
	select {
	case err = <-done:
	case s := <-sig:
		err = fmt.Errorf("interrupted by %v", s)
	}
	watchdog.Stop()
	if err == nil && r.tr != nil {
		err = r.tr.write(filepath.Join(buildDir, "trace-"+r.workload+".json"))
	}
	cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", r.workload+":", err)
		return 1
	}
	return r.report()
}

// reported lists the metrics this run prints, in display order.
func (r *run) reported() []metricDef {
	if r.tr != nil {
		return perLayer
	}
	return endToEnd
}

// result assembles the result object: the end-to-end metrics of a gated
// run, the per-layer metrics of a traced one. A run is correct when it
// attempted something and nothing failed.
func (r *run) result() result {
	defs := r.reported()
	res := result{
		Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		Metrics: make(map[string]metricValue, len(defs)),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	return res
}

// report prints each metric on its own line and the result object last; a
// run with a failed operation or output check exits non-zero.
func (r *run) report() int {
	res := r.result()
	for _, d := range r.reported() {
		fmt.Printf("%-36s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if r.tr == nil {
		// How fast the host was, for the reader; no metric, gates nothing.
		fmt.Printf("%-36s %14.6g ms\n", "harness.calib_ms", r.med("harness.calib"))
	}
	fmt.Printf("%-36s %14d\n%-36s %14d\n", "attempted", res.Attempted, "failed", res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
