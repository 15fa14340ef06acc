package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"telcochurn/internal/core"
	"telcochurn/internal/features"
	"telcochurn/internal/serve"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// child is a running churnd. It is always reaped: stop is idempotent and is
// called on the normal path, on every error path, on a signal and by the
// watchdog; Pdeathsig covers the harness being killed outright.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	log    string
	exited chan struct{}
	once   sync.Once
}

// startChurnd launches churnd on a port the kernel picks and waits until
// /readyz answers 200. churnd keeps its defaults — in particular -fsync
// always — apart from the pinned worker count.
func (r *run) startChurnd(artifact, warehouse string) (*child, error) {
	logPath := filepath.Join(filepath.Dir(artifact), "churnd.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(r.churnd, "-artifact", artifact, "-warehouse", warehouse,
		"-addr", "127.0.0.1:0", "-workers", fmt.Sprint(workers))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s (built by bench/run.sh): %w", r.churnd, err)
	}
	c := &child{cmd: cmd, log: logPath, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(c.exited) }()
	r.mu.Lock()
	r.child = c
	r.mu.Unlock()

	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("churnd exited before it was ready:\n%s", tail)
		default:
		}
		if c.base == "" {
			if port, ok := listenPort(cmd.Process.Pid); ok {
				c.base = fmt.Sprintf("http://127.0.0.1:%d", port)
			}
		}
		if c.base != "" {
			if resp, err := probe.Get(c.base + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return c, nil
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.stop()
	return nil, fmt.Errorf("churnd not ready after 60 s (log %s)", logPath)
}

// stop asks churnd to drain, kills it if it does not, and waits for it.
func (c *child) stop() {
	c.once.Do(func() {
		c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.exited:
		case <-time.After(8 * time.Second):
			c.cmd.Process.Kill()
			<-c.exited
		}
	})
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// conn is one client connection: its own transport holding at most one
// keep-alive socket, used by one goroutine, so "2 connections, closed
// loop" is literal.
type conn struct {
	hc   *http.Client
	base string
}

func newConn(base string, timeout time.Duration) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout:   timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// post sends one request and reads the whole reply. A transport error or a
// non-2xx status is a failed operation for the caller to count.
func (c *conn) post(path string, body []byte) (reply []byte, lat time.Duration, err error) {
	begin := time.Now()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, time.Since(begin), err
	}
	reply, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(begin)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return reply, lat, err
}

func (c *conn) getJSON(path string, into any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// scoreBodies pre-renders n score requests of `batch` ids each, drawn from
// ids by a seeded generator, so building requests costs the loop nothing.
func scoreBodies(ids []int64, batch, n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		if batch == 1 {
			out[i] = []byte(fmt.Sprintf(`{"id":%d}`, ids[rng.Intn(len(ids))]))
			continue
		}
		pick := make([]int64, batch)
		for j := range pick {
			pick[j] = ids[rng.Intn(len(ids))]
		}
		out[i], _ = json.Marshal(map[string][]int64{"ids": pick})
	}
	return out
}

// closedLoop drives POST /v1/score from every connection at once, each
// sending its next request when the reply to the last arrives, until stop
// returns true, and returns the latency (ms) of every 2xx reply. With spans
// set (traced run only) each request gets a span.
func (r *run) closedLoop(conns []*conn, bodies [][]byte, name string, spans bool, stop func(elapsed time.Duration) bool) []float64 {
	var (
		wg  sync.WaitGroup
		all = make([][]float64, len(conns))
	)
	begin := time.Now()
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for i := ci; !stop(time.Since(begin)); i += len(conns) {
				id := -1
				if spans {
					id = r.tr.start(name, -1)
				}
				_, lat, err := c.post("/v1/score", bodies[i%len(bodies)])
				r.tr.end(id)
				r.op(err == nil, "%s: %v", name, err)
				if err == nil {
					all[ci] = append(all[ci], float64(lat)/1e6)
				}
			}
		}(ci, c)
	}
	wg.Wait()
	var out []float64
	for _, lat := range all {
		out = append(out, lat...)
	}
	return out
}

// segment is one fixed-time slice of a closed loop and the host factor
// from the calibration shots around it.
type segment struct {
	lat    []float64 // latency (ms) of each 2xx reply
	perSec float64   // 2xx replies per second
	host   float64   // run.hostFactor for this segment
}

// p50 is the segment's median latency as measured.
func (s segment) p50() float64 { return median(s.lat) }

// normP50 is the segment's median latency at reference host speed.
func (s segment) normP50() float64 { return median(s.lat) * s.host }

// segments runs n closed-loop segments of length seg back to back against c,
// with a calibration shot and an RSS sample after each while churnd idles. On a traced run the even
// segments record a span per request and the odd ones none.
func (r *run) segments(c *child, conns []*conn, bodies [][]byte, name string, seg time.Duration, n int) []segment {
	out := make([]segment, n)
	for k := range out {
		spans := r.tr != nil && k%2 == 0
		lat := r.closedLoop(conns, bodies, name, spans, func(elapsed time.Duration) bool { return elapsed >= seg })
		out[k] = segment{lat: lat, perSec: float64(len(lat)) / seg.Seconds(), host: r.hostFactor()}
		r.sampleChildRSS(c)
	}
	return out
}

// over applies f to every segment that saw a reply.
func over(segs []segment, f func(segment) float64) []float64 {
	var out []float64
	for _, s := range segs {
		if len(s.lat) > 0 {
			out = append(out, f(s))
		}
	}
	return out
}

// served is a trained artifact with a churnd serving it.
type served struct {
	w        *world
	pipe     *core.Pipeline
	artifact string
	ch       *child
	ids      []int64
}

// serveSetUp is `churnctl generate`, `train -precompute` and churnd's boot,
// done in process: generate, fit, precompute the serving month, save the
// artifact, start the child and wait for /readyz.
func (r *run) serveSetUp() (*served, error) {
	s, err := setUp(r, func(dir string, span int) (*served, error) {
		w, err := r.generate(filepath.Join(dir, "wh"), span)
		if err != nil {
			return nil, err
		}
		s := &served{w: w, artifact: filepath.Join(dir, "model.tcpa")}
		r.timed("core.fit", span, func(int) {
			s.pipe, err = core.Fit(w.src, []core.WindowSpec{core.MonthSpec(fitMonth, daysPerMo)}, r.coreConfig())
		})
		if err != nil {
			return nil, fmt.Errorf("fit: %w", err)
		}
		r.timed("core.precompute", span, func(int) {
			err = s.pipe.Precompute(w.src, features.MonthWindow(scoreMon, daysPerMo), scoreMon)
		})
		if err != nil {
			return nil, fmt.Errorf("precompute: %w", err)
		}
		r.timed("core.artifact_save", span, func(int) { err = s.pipe.SaveFile(s.artifact) })
		if err != nil {
			return nil, fmt.Errorf("save: %w", err)
		}
		r.timed("churnd.boot_ready", span, func(int) { s.ch, err = r.startChurnd(s.artifact, w.dir) })
		if err != nil {
			return nil, err
		}
		s.ids = s.pipe.Vectors().IDs()
		return s, nil
	}, func(s *served) { s.ch.stop() })
	if err != nil {
		return nil, err
	}
	r.set("core.precompute_ms", r.med("core.precompute"))
	r.set("core.artifact_save_ms", r.med("core.artifact_save"))
	r.set("churnd.boot_ready_ms", r.med("churnd.boot_ready"))
	return s, nil
}

// sampleChildRSS records churnd's resident set (MB). It is called after
// every segment, chunk and refresh of the measured phase.
func (r *run) sampleChildRSS(c *child) {
	mb, err := rssMB(c.pid(), "VmRSS")
	r.op(err == nil, "read churnd RSS: %v", err)
	r.record("churnd.rss", mb)
}

// childPeakMB is the 90th percentile of the RSS samples. The top decile is
// left out because the first sample or two may still see what the boot left
// resident (identical runs started at 56 or 68 MB and were all at 55-57 MB
// ten segments later), and VmHWM is not used because it cannot be told to
// forget the boot.
func (r *run) childPeakMB() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return quantile(r.obs["churnd.rss"], 0.9)
}

// churndMetrics fetches churnd's /metrics map.
func churndMetrics(c *conn) (map[string]any, error) {
	m := map[string]any{}
	err := c.getJSON("/metrics", &m)
	return m, err
}

// serveRead is read-only serving under saturation: main = a single-id POST
// /v1/score, side = a 64-id batch score, both from closed-loop connections
// that outnumber the cores. The phases are cut into many short segments with
// a calibration shot after each: the host's bursts last about as long as a
// shot, so the median over many (segment, shot) pairs sheds the pairs a
// burst hit, which the median over a few long segments cannot.
func serveRead(r *run) error {
	s, err := r.serveSetUp()
	if err != nil {
		return err
	}
	defer s.ch.stop()
	conns := make([]*conn, r.sz.conns)
	for i := range conns {
		conns[i] = newConn(s.ch.base, 10*time.Second)
	}
	// Shots take about a quarter of the measured phase; the rest is shared
	// by one warm-up segment and the segments of the two phases.
	seg := time.Duration(r.measuredBudget() * 0.75 / float64(1+r.sz.segsA+r.sz.segsB) * float64(time.Second))
	single := scoreBodies(s.ids, 1, 4096, r.seed)
	batch := scoreBodies(s.ids, 64, 512, r.seed+1)

	r.closedLoop(conns, single, "warmup", false, func(elapsed time.Duration) bool { return elapsed >= seg })
	r.calib()
	cpu0, _ := cpuSeconds(s.ch.pid())
	a := r.segments(s.ch, conns, single, "http.score", seg, r.sz.segsA)
	cpu1, err := cpuSeconds(s.ch.pid())
	r.op(err == nil, "read churnd cpu time: %v", err)
	b := r.segments(s.ch, conns, batch, "http.score_batch64", seg, r.sz.segsB)
	if len(over(a, segment.p50)) == 0 || len(over(b, segment.p50)) == 0 {
		return fmt.Errorf("no request succeeded (churnd log: %s)", s.ch.log)
	}
	r.set("main_ms", median(over(a, segment.normP50)))
	r.set("side_ms", median(over(b, segment.normP50)))
	r.set("peak_rss_mb", r.childPeakMB())
	r.servedScoresMatch(conns[0], s)
	if r.tr == nil {
		return nil
	}

	r.set("score_p50_ms", median(over(a, segment.p50)))
	r.set("score_p99_ms", median(over(a, func(s segment) float64 { return quantile(s.lat, 0.99) })))
	r.set("score_rps", median(over(a, func(s segment) float64 { return s.perSec })))
	r.set("batch_p50_ms", median(over(b, segment.p50)))
	replies := 0
	for k, s := range a {
		replies += len(s.lat)
		name := "http.score"
		if k%2 == 1 {
			name += ".untraced"
		}
		r.record(name, median(s.lat))
	}
	r.set("churnd.cpu_us_per_req", (cpu1-cpu0)*1e6/float64(replies))
	if mb, err := rssMB(s.ch.pid(), "VmRSS"); err == nil {
		r.set("churnd.rss_mb", mb)
	}
	m, err := churndMetrics(conns[0])
	if err != nil {
		return err
	}
	if bs, ok := m["batch_size"].(map[string]any); ok {
		r.set("serve.batch_size_mean", asFloat(bs["mean"]))
	}
	r.set("serve.queue_full", asFloat(m["queue_full"]))
	if err := r.serveLayers(s); err != nil {
		return err
	}
	if err := r.writePartitionProbe(s.w); err != nil {
		return err
	}
	r.set("churnd.http_overhead_us", r.values["churnd.cpu_us_per_req"]-r.values["serve.score_one_ns"]/1e3)
	r.harnessLayers("http.score")
	return nil
}

func asFloat(v any) float64 {
	f, _ := v.(float64)
	return f
}

// servedScoresMatch checks 64 sampled customers: the score churnd returns
// over HTTP must equal, bit for bit, what Pipeline.PredictVectors computes
// in process for the same artifact.
func (r *run) servedScoresMatch(c *conn, s *served) {
	want, err := s.pipe.PredictVectors()
	if err != nil {
		r.op(false, "PredictVectors: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(r.seed + 2))
	for k := 0; k < 64; k++ {
		i := rng.Intn(len(want.IDs))
		reply, _, err := c.post("/v1/score", []byte(fmt.Sprintf(`{"id":%d}`, want.IDs[i])))
		var got struct {
			Score *float64 `json:"score"`
		}
		if err == nil {
			err = json.Unmarshal(reply, &got)
		}
		ok := err == nil && got.Score != nil && math.Float64bits(*got.Score) == math.Float64bits(want.Scores[i])
		r.op(ok, "served score of imsi %d differs from PredictVectors (%v, %s)", want.IDs[i], err, reply)
	}
}

// wireEvents flattens generated event tables into POST /v1/events records,
// in table-name order.
func wireEvents(tables map[string]*table.Table) []serve.Event {
	var out []serve.Event
	for _, name := range sortedKeys(tables) {
		t := tables[name]
		imsi, month, day := t.MustCol("imsi").Ints, t.MustCol("month").Ints, t.MustCol("day").Ints
		for i := 0; i < t.NumRows(); i++ {
			ev := serve.Event{Table: name, IMSI: imsi[i], Month: month[i], Day: day[i], Fields: map[string]any{}}
			for _, f := range t.Schema.Fields {
				if f.Name == "imsi" || f.Name == "month" || f.Name == "day" {
					continue
				}
				col := t.MustCol(f.Name)
				switch f.Type {
				case table.Int64:
					ev.Fields[f.Name] = col.Ints[i]
				case table.Float64:
					ev.Fields[f.Name] = col.Floats[i]
				default:
					ev.Fields[f.Name] = col.Strings[i]
				}
			}
			out = append(out, ev)
		}
	}
	return out
}

// eventBatches generates n event batches for the serving month; batch i is
// a pure function of (seed, i).
func (r *run) eventBatches(ids []int64, n int) []map[string]*table.Table {
	out := make([]map[string]*table.Table, n)
	for i := range out {
		out[i] = synth.GenerateEvents(ids, scoreMon, daysPerMo, r.sz.eventsPerPost, r.seed*1_000_003+int64(i))
	}
	return out
}

// reader scores single ids, closed loop, while the writer works; it runs
// chunk by chunk so that it is quiet during the calibration shots in
// between.
type reader struct {
	r      *run
	conns  []*conn
	bodies [][]byte
	lat    []float64 // every reply so far
	busy   time.Duration
}

// during runs the reader for as long as work takes.
func (rd *reader) during(work func()) {
	var stop atomic.Bool
	done := make(chan []float64)
	begin := time.Now()
	go func() {
		done <- rd.r.closedLoop(rd.conns, rd.bodies, "http.score", false, func(time.Duration) bool { return stop.Load() })
	}()
	work()
	stop.Store(true)
	rd.lat = append(rd.lat, <-done...)
	rd.busy += time.Since(begin)
}

// serveIngest is writes beside reads: main = POST /v1/events of one
// 8-event batch (one connection, a fixed number of posts into an empty
// log), side = POST /v1/refresh, while reader connections keep scoring
// single ids — enough of them to keep both cores busy, so that the
// calibration tracks what the writer waits for.
func serveIngest(r *run) error {
	s, err := r.serveSetUp()
	if err != nil {
		return err
	}
	defer s.ch.stop()
	writer := newConn(s.ch.base, 60*time.Second)
	rd := &reader{r: r, bodies: scoreBodies(s.ids, 1, 4096, r.seed)}
	for i := 0; i < r.sz.readers; i++ {
		rd.conns = append(rd.conns, newConn(s.ch.base, 10*time.Second))
	}
	budget := r.measuredBudget()
	chunks := int(math.Max(2, math.Round(r.sz.postsPerSec*budget/float64(r.sz.chunk))))
	batches := r.eventBatches(s.ids, chunks*r.sz.chunk)
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		if bodies[i], err = json.Marshal(serve.EventBatch{Events: wireEvents(b)}); err != nil {
			return err
		}
	}

	r.servedScoresMatch(rd.conns[0], s) // before any event moves a score

	// Phase A: a fixed number of posts, because ingest latency grows with
	// the length of the unmerged log; a calibration shot after every chunk.
	var (
		acked             int
		postMs            []float64 // raw latency of every acknowledged post
		chunkMs, chunkEPS []float64 // per chunk: normalised p50, events/s as measured
	)
	r.calib()
	phase := r.tr.start("phase.ingest", -1)
	for k := 0; k < chunks; k++ {
		var lat []float64
		got := 0
		begin := time.Now()
		rd.during(func() {
			for i := k * r.sz.chunk; i < (k+1)*r.sz.chunk; i++ {
				id := -1
				if r.tr != nil && k%2 == 0 {
					id = r.tr.start("http.events", phase)
				}
				reply, d, err := writer.post("/v1/events", bodies[i])
				r.tr.end(id)
				var ack struct{ Received, Applied int }
				if err == nil {
					err = json.Unmarshal(reply, &ack)
				}
				ok := err == nil && ack.Received == r.sz.eventsPerPost && ack.Applied == ack.Received
				r.op(ok, "POST /v1/events %d: %v %s", i, err, reply)
				if ok {
					got += ack.Received
					lat = append(lat, float64(d)/1e6)
				}
			}
		})
		wall := time.Since(begin)
		host := r.hostFactor()
		r.sampleChildRSS(s.ch)
		if len(lat) == 0 {
			continue
		}
		acked += got
		postMs = append(postMs, lat...)
		chunkMs = append(chunkMs, median(lat)*host)
		chunkEPS = append(chunkEPS, float64(got)/wall.Seconds())
		if r.tr != nil {
			name := "http.events"
			if k%2 == 1 {
				name += ".untraced"
			}
			r.record(name, median(lat))
		}
	}
	r.tr.end(phase)
	if len(postMs) == 0 {
		return fmt.Errorf("no event post succeeded (churnd log: %s)", s.ch.log)
	}

	// Phase B: sequential refreshes, the slow-cadence rebuild.
	var refreshNorm, tookMs []float64
	stale := -1
	untilDeadline(budget*0.35, r.sz.minRefreshes, func(i int) error {
		var reply []byte
		var err error
		ms := 0.0
		rd.during(func() {
			ms = r.timed("http.refresh", -1, func(int) { reply, _, err = writer.post("/v1/refresh", nil) })
		})
		host := r.hostFactor()
		r.sampleChildRSS(s.ch)
		var got struct {
			TookMs       float64 `json:"took_ms"`
			StaleVectors int     `json:"stale_vectors"`
		}
		if err == nil {
			err = json.Unmarshal(reply, &got)
		}
		r.op(err == nil, "POST /v1/refresh %d: %v", i, err)
		if err == nil {
			refreshNorm = append(refreshNorm, ms*host)
			tookMs = append(tookMs, got.TookMs)
			stale = got.StaleVectors
		}
		return nil
	})
	if len(refreshNorm) == 0 || len(rd.lat) == 0 {
		return fmt.Errorf("no refresh or no score succeeded (churnd log: %s)", s.ch.log)
	}

	m, err := churndMetrics(rd.conns[0])
	if err != nil {
		return err
	}
	r.op(int(asFloat(m["events_ingested"])) == acked, "events_ingested %v, acknowledged %d", m["events_ingested"], acked)
	r.op(stale == 0 && asFloat(m["stale_vectors"]) == 0, "stale_vectors %v after the last refresh (reply said %d)", m["stale_vectors"], stale)

	r.set("main_ms", median(chunkMs))
	r.set("side_ms", median(refreshNorm))
	r.set("peak_rss_mb", r.childPeakMB())
	if r.tr == nil {
		return nil
	}

	r.set("ingest_events_per_s", median(chunkEPS))

	decile := len(postMs) / 10
	if decile < 1 {
		decile = 1
	}
	first, last := median(postMs[:decile]), median(postMs[len(postMs)-decile:])
	r.set("churnd.ingest_first_ms", first)
	r.set("churnd.ingest_last_ms", last)
	r.set("churnd.ingest_growth", last/first)
	r.set("churnd.refresh_took_ms", median(tookMs))
	r.set("score_p50_ms", median(rd.lat))
	r.set("score_rps", float64(len(rd.lat))/rd.busy.Seconds())
	if mb, err := rssMB(s.ch.pid(), "VmRSS"); err == nil {
		r.set("churnd.rss_mb", mb)
	}

	// The log churnd wrote is replayed and merged here, so it must be quiet.
	s.ch.stop()
	if err := r.writePartitionProbe(s.w); err != nil {
		return err
	}
	if err := r.ingestLayers(s, batches); err != nil {
		return err
	}
	r.harnessLayers("http.events")
	return nil
}
