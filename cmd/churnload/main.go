// Command churnload is an open-loop load generator for churnd — the harness
// behind the serving-latency numbers in DESIGN.md §13:
//
//	churnd -artifact churn-model.tcpa -warehouse ./warehouse &
//	churnload -addr http://127.0.0.1:8080 -rps 500 -duration 10s -out LOAD.json
//
// Open loop means requests fire on a fixed schedule (one every 1/rps) no
// matter how slowly the server answers, and each latency is measured from
// the request's *scheduled* send time. A server that stalls therefore shows
// the stall in every queued request's latency instead of silently slowing
// the generator down — the coordinated-omission mistake closed-loop tools
// make.
//
// Target ids come from churnd's GET /v1/customers unless -ids pins them.
// Latencies land in the same log-2 histogram churnd's /metrics uses; the
// result is a JSON report (-out).
//
// With -max-p99 and/or -max-non2xx the run self-gates (non-zero exit on
// violation), which is how CI's loadtest job turns a 10-second run into a
// latency regression guard.
//
// -ingest-mix F turns the run into a mixed read/write workload: fraction F
// of the scheduled requests POST a one-event recharge batch to /v1/events
// instead of scoring, on the same open-loop schedule. Writes share the
// histogram and the non-2xx budget, so the existing gates also bound the
// latency cost of ingest-while-scoring.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"telcochurn/internal/serve"
)

func main() {
	fs := flag.NewFlagSet("churnload", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "churnd base URL (scheme optional)")
	rps := fs.Float64("rps", 200, "target request rate (open loop)")
	duration := fs.Duration("duration", 10*time.Second, "run length")
	conns := fs.Int("conns", 16, "concurrent senders (also the connection-pool size)")
	batch := fs.Int("batch", 1, "ids per request (1 = single-score path)")
	idSpec := fs.String("ids", "", "comma-separated target ids (default: discover via /v1/customers)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-request timeout")
	out := fs.String("out", "", "JSON report path (default stdout)")
	name := fs.String("name", "BenchmarkChurnload", "benchmark name in the report")
	seed := fs.Int64("seed", 1, "target-selection seed")
	ingestMix := fs.Float64("ingest-mix", 0, "fraction of requests that POST a one-event batch to /v1/events (0 = read-only)")
	maxP99 := fs.Duration("max-p99", 0, "fail when p99 exceeds this (0 = no gate)")
	maxNon2xx := fs.Float64("max-non2xx", -1, "fail when the non-2xx fraction exceeds this (-1 = no gate)")
	fs.Parse(os.Args[1:])

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")

	if *rps <= 0 || *duration <= 0 || *conns <= 0 || *batch <= 0 {
		fatal("rps, duration, conns and batch must all be positive")
	}
	if *ingestMix < 0 || *ingestMix > 1 {
		fatal("-ingest-mix must be in [0, 1]")
	}
	ids, month, err := targetIDs(base, *idSpec, *timeout)
	if err != nil {
		fatal(err)
	}
	if *ingestMix > 0 && month == 0 {
		// Pinned -ids skip discovery, but events need the serving month.
		if _, month, err = discoverCustomers(base, *timeout); err != nil {
			fatal(err)
		}
	}

	r := newRun(base, ids, *conns, *batch, *timeout, *seed)
	r.mix = *ingestMix
	r.month = month
	total := int64(*rps * duration.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / *rps)
	elapsed := r.fire(total, interval)

	rep := r.report(*name, *rps, *batch, *ingestMix, total, elapsed, *duration)
	buf, _ := json.MarshalIndent(rep, "", "  ")
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	r.summarize(os.Stderr, total, elapsed)

	if bad := r.gate(*maxP99, *maxNon2xx, total); bad != "" {
		fatal("gate failed: " + bad)
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "churnload:", v)
	os.Exit(1)
}

// targetIDs resolves the id pool: an explicit -ids list (month reported as
// 0 — unknown), or discovery against the server's /v1/customers endpoint.
func targetIDs(base, spec string, timeout time.Duration) ([]int64, int, error) {
	if spec != "" {
		var ids []int64
		for _, tok := range strings.Split(spec, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("bad id %q in -ids", tok)
			}
			ids = append(ids, id)
		}
		return ids, 0, nil
	}
	return discoverCustomers(base, timeout)
}

// discoverCustomers fetches the serving universe — ids and month — from
// churnd's GET /v1/customers.
func discoverCustomers(base string, timeout time.Duration) ([]int64, int, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/v1/customers")
	if err != nil {
		return nil, 0, fmt.Errorf("discover targets: %w (is churnd up? or pass -ids)", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("discover targets: %s from %s/v1/customers", resp.Status, base)
	}
	var body struct {
		Month int     `json:"month"`
		IDs   []int64 `json:"ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, 0, fmt.Errorf("discover targets: %w", err)
	}
	if len(body.IDs) == 0 {
		return nil, 0, fmt.Errorf("server reports no scorable customers")
	}
	return body.IDs, body.Month, nil
}

// run holds the shared state of one load run.
type run struct {
	url       string
	eventsURL string
	ids       []int64
	conns     int
	batch     int
	seed      int64
	mix       float64 // fraction of requests that are event writes
	month     int     // serving month events land in (when mix > 0)
	client    *http.Client

	latency serve.Histogram // ns from scheduled send to response fully read
	ok      atomic.Int64    // 2xx responses
	non2xx  atomic.Int64    // responses with any other status
	errs    atomic.Int64    // transport-level failures (timeout, refused)
	late    atomic.Int64    // requests that started >= 1 interval behind schedule
	writes  atomic.Int64    // requests that were event posts, not scores
}

func newRun(base string, ids []int64, conns, batch int, timeout time.Duration, seed int64) *run {
	return &run{
		url:       base + "/v1/score",
		eventsURL: base + "/v1/events",
		ids:       ids,
		conns:     conns,
		batch:     batch,
		seed:      seed,
		client: &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxIdleConns:        conns * 2,
				MaxIdleConnsPerHost: conns * 2,
			},
		},
	}
}

// fire sends `total` requests on the open-loop schedule: request k is due at
// start + k*interval, and worker w owns every k ≡ w (mod conns). A worker
// that falls behind does not re-space its schedule — it fires late and the
// lateness lands in the latency measurement. Returns wall time for the run.
func (r *run) fire(total int64, interval time.Duration) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < r.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed + int64(w)))
			body := make([]byte, 0, 64)
			for k := int64(w); k < total; k += int64(r.conns) {
				sched := start.Add(time.Duration(k) * interval)
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				} else if -d >= interval {
					r.late.Add(1)
				}
				r.one(rng, body[:0], sched)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// one sends a single request — a score, or (with probability mix) a
// one-event ingest — and records its outcome. Latency runs from the
// scheduled send time through draining the response body.
func (r *run) one(rng *rand.Rand, body []byte, sched time.Time) {
	url := r.url
	if r.mix > 0 && rng.Float64() < r.mix {
		url = r.eventsURL
		body = r.eventBody(rng, body)
		r.writes.Add(1)
	} else if r.batch == 1 {
		body = append(body, `{"id":`...)
		body = strconv.AppendInt(body, r.ids[rng.Intn(len(r.ids))], 10)
		body = append(body, '}')
	} else {
		body = append(body, `{"ids":[`...)
		for i := 0; i < r.batch; i++ {
			if i > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendInt(body, r.ids[rng.Intn(len(r.ids))], 10)
		}
		body = append(body, `]}`...)
	}
	resp, err := r.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		r.errs.Add(1)
		r.latency.Observe(uint64(time.Since(sched)))
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.latency.Observe(uint64(time.Since(sched)))
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		r.ok.Add(1)
	} else {
		r.non2xx.Add(1)
	}
}

// eventBody renders a one-event recharge batch for the write side of the
// mix: a random target tops up a random amount on a random day of the
// serving month. Recharges are the cheapest streamable table and always
// move F1's recharge aggregates, so every write forces real invalidation.
func (r *run) eventBody(rng *rand.Rand, body []byte) []byte {
	body = append(body, `{"events":[{"table":"recharges","imsi":`...)
	body = strconv.AppendInt(body, r.ids[rng.Intn(len(r.ids))], 10)
	body = append(body, `,"month":`...)
	body = strconv.AppendInt(body, int64(r.month), 10)
	body = append(body, `,"day":`...)
	body = strconv.AppendInt(body, int64(rng.Intn(28)+1), 10)
	body = append(body, `,"fields":{"amount":`...)
	body = strconv.AppendFloat(body, 5+float64(rng.Float64()*95), 'f', 2, 64)
	body = append(body, `}}]}`...)
	return body
}

// report renders the run as the JSON report: one named benchmark entry with
// the latency quantiles and error counts under "extra".
func (r *run) report(name string, rps float64, batch int, mix float64, total int64, elapsed, want time.Duration) map[string]any {
	full := fmt.Sprintf("%s/rps=%g/batch=%d", name, rps, batch)
	if mix > 0 {
		full += fmt.Sprintf("/mix=%g", mix)
	}
	mean := 0.0
	if snap := r.latency.Snapshot(); snap["count"].(uint64) > 0 {
		mean = snap["mean"].(float64)
	}
	bench := map[string]any{
		"name":          full,
		"iterations":    total,
		"ns_per_op":     mean,
		"bytes_per_op":  0,
		"allocs_per_op": 0,
		"extra": map[string]float64{
			"p50-ns":       r.latency.Quantile(0.50),
			"p95-ns":       r.latency.Quantile(0.95),
			"p99-ns":       r.latency.Quantile(0.99),
			"achieved-rps": float64(total) / elapsed.Seconds(),
			"non2xx":       float64(r.non2xx.Load()),
			"errors":       float64(r.errs.Load()),
			"late":         float64(r.late.Load()),
			"writes":       float64(r.writes.Load()),
		},
	}
	return map[string]any{
		"package":    "cmd/churnload",
		"bench":      full,
		"benchtime":  want.String(),
		"benchmarks": []any{bench},
	}
}

// summarize prints the human-readable digest on stderr (the JSON report owns
// stdout).
func (r *run) summarize(w io.Writer, total int64, elapsed time.Duration) {
	fmt.Fprintf(w, "churnload: %d requests in %v (%.1f req/s achieved)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Fprintf(w, "churnload: latency p50 %v  p95 %v  p99 %v\n",
		time.Duration(r.latency.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(r.latency.Quantile(0.95)).Round(time.Microsecond),
		time.Duration(r.latency.Quantile(0.99)).Round(time.Microsecond))
	fmt.Fprintf(w, "churnload: 2xx %d  non-2xx %d  transport errors %d  late sends %d\n",
		r.ok.Load(), r.non2xx.Load(), r.errs.Load(), r.late.Load())
	if n := r.writes.Load(); n > 0 {
		fmt.Fprintf(w, "churnload: %d event posts (month %d) interleaved with the scores\n", n, r.month)
	}
}

// gate applies the self-check thresholds; a non-empty return is the failure
// message.
func (r *run) gate(maxP99 time.Duration, maxNon2xx float64, total int64) string {
	if maxP99 > 0 {
		if p99 := time.Duration(r.latency.Quantile(0.99)); p99 > maxP99 {
			return fmt.Sprintf("p99 %v exceeds -max-p99 %v", p99.Round(time.Microsecond), maxP99)
		}
	}
	if maxNon2xx >= 0 {
		// Transport errors count against the non-2xx budget: a connection
		// the server dropped is worse than a clean 503.
		bad := float64(r.non2xx.Load()+r.errs.Load()) / float64(total)
		if bad > maxNon2xx {
			return fmt.Sprintf("non-2xx fraction %.4f exceeds -max-non2xx %.4f", bad, maxNon2xx)
		}
	}
	return ""
}
