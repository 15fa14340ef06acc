// Command churnd serves a trained pipeline artifact over HTTP — the online
// half of the paper's system, where the monthly batch scorer becomes a
// long-lived scoring service that also takes writes:
//
//	churnctl train -warehouse ./warehouse -out churn-model.tcpa
//	churnd -artifact churn-model.tcpa -warehouse ./warehouse
//	curl -d '{"ids":[12,99]}' localhost:8080/v1/score
//	curl -d '{"events":[{"table":"recharges","imsi":12,"month":2,"day":9,"fields":{"amount":30}}]}' localhost:8080/v1/events
//
// Endpoints:
//
//	POST /v1/score      {"id":N} or {"ids":[N,...]} -> churn scores
//	POST /v1/events     append raw BSS/OSS event records; affected customers'
//	                    serving vectors refresh incrementally within the call
//	POST /v1/refresh    rebuild the serving frame from the warehouse month
//	                    plus every logged event and hot-swap it atomically
//	                    under the overlay (graph/topic groups catch up)
//	GET  /v1/customers  scorable customer ids (?limit=N caps the list)
//	GET  /healthz       liveness + model identity (200 while the process is up)
//	GET  /readyz        readiness (503 + Retry-After until scores are servable)
//	GET  /metrics       request/latency (p50/p95/p99)/retry/ingest/degradation
//
// Every error renders one envelope: {"error":{"code","message","retryable"}}
// with 400 invalid_request, 404 unknown_customer, 405 method_not_allowed,
// 413 request_too_large (more ids than -queue admits, or a body over the
// endpoint's cap), 429 overloaded / refresh_in_progress, 503 unavailable,
// 504 timeout.
//
// Serving path: vectors resolve through the live event overlay over one
// immutable snapshot, picked warehouse first by the rule `churnctl score`
// shares (core.ServeMonth): the warehouse frame ("frame") whenever the
// warehouse opens, the artifact's precomputed vectors (churnctl train
// -precompute, "vectors") only without one or when the frame build fails —
// reported uniformly by /healthz, /readyz and /metrics. Scores stay
// bit-identical to `churnctl score` over the same artifact, month and
// merged events.
//
// Streaming ingest: the engine holds one "warehouse + unmerged events" — the
// incremental feature maintainer's tables. Boot reads the served month once,
// folds the event log into it once and builds the serving frame from those
// tables. Events append durably to the log first, then fold into the
// maintainer — the parsed batch itself when its segment is the next one
// after the last folded, else the log read back from there (another
// handle appended in between); each affected customer's full serving row
// is recomputed (per-customer groups exactly, graph groups at their
// snapshot values) and installed as an overlay override, so the next
// score reflects the event within the same second. POST /v1/refresh
// rebuilds the whole frame (graph groups included) from a snapshot of the
// maintainer's tables — no raw partition read, no log replay — and swaps
// it under the overlay without dropping requests; `churnctl ingest -merge`
// folds the log into the monthly partitions for the batch path.
//
// Resilience: source reads retry with seeded-jitter backoff (-retries);
// with -degraded the serving frame builds even when raw tables are missing
// (their feature groups are imputed and reported). SIGHUP hot-reloads the
// artifact and warehouse window with validate-then-swap semantics: a reload
// that fails to build leaves the previous engine serving untouched.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"telcochurn/internal/core"
	"telcochurn/internal/features"
	"telcochurn/internal/serve"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

func main() {
	fs := flag.NewFlagSet("churnd", flag.ExitOnError)
	artifact := fs.String("artifact", "churn-model.tcpa", "pipeline artifact from churnctl train")
	warehouse := fs.String("warehouse", "./warehouse", "warehouse directory")
	month := fs.Int("month", 0, "feature month to serve (0 = latest)")
	addr := fs.String("addr", ":8080", "listen address")
	queue := fs.Int("queue", 0, "bound on customer scores in flight across batch requests, 429 past it (0 = default 4096)")
	workers := fs.Int("workers", 0, "parallelism for the feature build (0 = all cores)")
	degraded := fs.Bool("degraded", false, "serve even when raw tables are unavailable (impute their feature groups, report the mask)")
	retries := fs.Int("retries", 0, "read attempts per source operation (0 = default 4, 1 = no retries)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown budget for in-flight requests")
	reqTimeout := fs.Duration("request-timeout", 10*time.Second, "per-request deadline, 504 on expiry (0 disables; /v1/refresh gets 6x)")
	fsyncMode := fs.String("fsync", "always", "warehouse/event-log durability: always, off, or a flush interval like 500ms")
	pprofAddr := fs.String("pprof", "", "mount net/http/pprof on this side address (empty = off)")
	fs.Parse(os.Args[1:])

	fsync, err := store.ParseSyncPolicy(*fsyncMode)
	if err != nil {
		log.Fatal("churnd: ", err)
	}
	svc, err := buildService(serviceOpts{
		artifact:   *artifact,
		warehouse:  *warehouse,
		month:      *month,
		cfg:        serve.Config{QueueSize: *queue},
		workers:    *workers,
		degraded:   *degraded,
		retries:    *retries,
		reqTimeout: *reqTimeout,
		fsync:      fsync,
	})
	if err != nil {
		log.Fatal("churnd: ", err)
	}
	defer svc.Close()

	if *pprofAddr != "" {
		// net/http/pprof registers on the default mux; serving that mux on a
		// side listener keeps profiling off the scoring port.
		go func() {
			log.Printf("churnd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("churnd: pprof listener: %v", err)
			}
		}()
	}

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Drain sequence on SIGINT/SIGTERM: mark draining (new readiness probes
	// get 503, new refreshes are refused), stop accepting and let in-flight
	// requests finish within -drain-timeout, then force-close whatever is
	// left. main waits on drained before svc.Close() flushes the event log.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("churnd: draining (budget %v)", *drainTimeout)
		svc.draining.Store(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("churnd: drain incomplete after %v (%v); closing remaining connections", *drainTimeout, err)
			srv.Close()
		}
	}()

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := svc.reload(); err != nil {
				log.Printf("churnd: reload rejected, previous engine keeps serving: %v", err)
			} else {
				e := svc.cur.Load()
				info := e.overlay.Info()
				log.Printf("churnd: reloaded %s (month %d, %d customers, %s path, degraded: %s)",
					*artifact, e.month, info.Rows, info.Source, info.Degradation)
			}
		}
	}()

	e := svc.cur.Load()
	info := e.overlay.Info()
	log.Printf("churnd: serving %s (month %d, %d customers, %s path, schema %08x, degraded: %s, ingest: %v) on %s",
		e.model, e.month, info.Rows, info.Source, e.pipe.SchemaChecksum(), info.Degradation, e.ingestReady(), *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal("churnd: ", err)
	}
	// ErrServerClosed means the drain goroutine is mid-shutdown; wait for it
	// so the deferred svc.Close() (scorer stop + event-log flush) runs after
	// the last in-flight request, not during it.
	<-drained
	log.Print("churnd: drained")
}

// serviceOpts is everything needed to build — and rebuild, on SIGHUP — the
// serving engine.
type serviceOpts struct {
	artifact  string
	warehouse string
	month     int // 0 = latest available at (re)build time
	cfg       serve.Config
	workers   int
	degraded  bool
	retries   int
	// reqTimeout is the per-request deadline (0 = none); expired requests
	// render the 504 envelope. fsync is the warehouse durability policy
	// (zero value = always, the safe default).
	reqTimeout time.Duration
	fsync      store.SyncPolicy
}

// engine is the hot-swappable serving unit: one artifact serving one month.
// Reloads build a whole new engine and atomically replace the pointer;
// in-flight requests finish on whichever engine they started. A /v1/refresh
// swaps only the overlay's base provider — the scorer and overlay survive,
// so refreshes never drop requests.
type engine struct {
	pipe   *core.Pipeline
	scorer *serve.Scorer
	// overlay holds the live event overrides over the one base provider
	// (the warehouse frame, else the artifact's snapshot); every handler
	// reports through its Info() so the active path and degradation read
	// uniformly everywhere.
	overlay *serve.Overlay
	// rs is the retrying warehouse source behind every read the engine
	// makes; nil without a warehouse.
	rs *core.RetrySource
	// Ingest state, nil unless the engine takes writes: the durable event
	// log and the maintainer holding the served month with every logged
	// event folded in — the engine's one "warehouse + unmerged events",
	// which refresh rebuilds the frame from. appliedSeq is the last log
	// sequence folded in, quarantined the count of the log's quarantine
	// records already surfaced; once the engine is published both are
	// guarded by the service's ingestMu.
	log         *store.EventLog
	inc         *core.Incremental
	appliedSeq  uint64
	quarantined int
	win         features.Window
	model       string
	month       int
}

// ingestReady reports whether the engine can take POST /v1/events.
func (e *engine) ingestReady() bool { return e.inc != nil }

// service wires the current engine, the reload machinery and the metrics
// (which survive reloads) into HTTP handlers.
type service struct {
	opts    serviceOpts
	metrics *serve.Metrics
	cur     atomic.Pointer[engine]
	// ingestMu serializes event folding and provider swaps.
	ingestMu   sync.Mutex
	refreshing atomic.Bool
	// draining flips once at shutdown: readiness goes 503 and new
	// refreshes are refused while in-flight work finishes.
	draining atomic.Bool
}

// buildService loads the artifact and builds the serving engine for one
// warehouse month (see buildEngine).
func buildService(opts serviceOpts) (*service, error) {
	s := &service{opts: opts, metrics: &serve.Metrics{}}
	e, err := s.buildEngine()
	if err != nil {
		return nil, err
	}
	s.cur.Store(e)
	return s, nil
}

// buildEngine assembles a fully validated engine from the current opts:
// artifact loaded and decoded, serving frame built from the served month
// with the unmerged event log folded in when the warehouse allows it, the
// artifact's snapshot serving only when it does not. Any failure leaves no
// side effects, which is what makes reload rollback free.
func (s *service) buildEngine() (*engine, error) {
	opts := s.opts
	pipe, err := core.LoadFile(opts.artifact)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", opts.artifact, err)
	}
	pipe.SetWorkers(opts.workers)

	days := synth.DefaultConfig().DaysPerMonth
	wh, whErr := store.Open(opts.warehouse)
	if whErr == nil {
		wh.SetSync(opts.fsync)
	}
	e := &engine{pipe: pipe, model: pipe.Classifier().Name()}

	// One base under the overlay, picked by the rule `churnctl score`
	// shares: the warehouse frame whenever the warehouse opens — it holds
	// every logged event — and the artifact's snapshot (churnctl train
	// -precompute) only without one or when the frame build fails.
	var base serve.Provider
	month, fallback, err := core.ServeMonth(wh, whErr, opts.month, pipe.Vectors(), func(month int) error {
		e.win = features.MonthWindow(month, days)
		e.rs = core.NewRetrySource(core.NewWarehouseSource(wh, days), core.RetryConfig{
			MaxAttempts: opts.retries,
			OnRetry: func(op string, attempt int, delay time.Duration, err error) {
				s.metrics.Retries.Add(1)
				log.Printf("churnd: retrying %s (attempt %d, backoff %v): %v", op, attempt, delay, err)
			},
		})
		frame, err := s.bootFrame(e, wh)
		s.metrics.RetriesExhausted.Add(e.rs.Exhausted())
		if err != nil {
			return fmt.Errorf("build serving frame for month %d: %w", month, err)
		}
		base = frame
		return nil
	})
	if err != nil {
		return nil, err
	}
	if fallback != nil {
		log.Printf("churnd: serving the precomputed snapshot alone: %v", fallback)
		base, _ = serve.NewVectorsProvider(pipe) // a fallback implies the snapshot
	}
	e.month, e.win = month, features.MonthWindow(month, days)
	e.overlay = serve.NewOverlay(base, s.metrics)
	e.scorer = serve.NewScorer(pipe.Classifier(), e.overlay, opts.cfg, s.metrics)
	s.metrics.DegradedMask.Store(uint64(e.overlay.Info().Degradation))
	s.metrics.RefreshUnixNano.Store(time.Now().UnixNano())
	return e, nil
}

// bootFrame reads the served month once, folds the unmerged event log into
// it once and builds the serving frame from those tables, so a restart
// resumes exactly where the log left off. The engine keeps the maintainer
// and the log only if it can take writes: a log that will not open or
// replay, a maintainer that will not wire (schema drift, F9, a degraded
// window) or a failed frame leave ingest disabled.
func (s *service) bootFrame(e *engine, wh *store.Warehouse) (*serve.Snapshot, error) {
	inc, err := core.LoadIncremental(e.rs.Source, e.win)
	if err != nil {
		return nil, err
	}
	e.inc = inc
	if e.log, err = wh.EventLog(); err != nil {
		log.Printf("churnd: event log unavailable, ingest disabled: %v", err)
	} else if _, _, err = s.fold(e, e.fromLog()); err != nil {
		log.Printf("churnd: event log replay failed, ingest disabled: %v", err)
		e.log = nil
	} else if err = inc.Wire(e.pipe); err != nil {
		log.Printf("churnd: incremental maintenance unavailable, ingest disabled: %v", err)
		e.log = nil
	}
	frameProv, err := s.newFrame(e, inc.View(e.rs.Source))
	if err != nil || e.log == nil {
		e.inc, e.log = nil, nil
	}
	return frameProv, err
}

// newFrame builds the serving frame over src, imputing around unavailable
// tables under -degraded.
func (s *service) newFrame(e *engine, src core.Source) (*serve.Snapshot, error) {
	if s.opts.degraded {
		return serve.NewFrameProviderDegraded(e.pipe, src, e.win)
	}
	return serve.NewFrameProvider(e.pipe, src, e.win)
}

// errIngestUnavailable marks an engine that cannot take writes (no
// warehouse, no event log, or no maintainer).
var errIngestUnavailable = errors.New("ingest unavailable: serving without a warehouse event log")

// eventSource streams committed event tables, in log order, into apply.
type eventSource func(apply func(seq uint64, name string, t *table.Table) error) error

// fromLog reads back every event-log segment after e.appliedSeq: at boot,
// at a reload or refresh, and on a post whose batch did not land right
// after the last folded segment (another handle — churnctl ingest without
// -addr — appended in between).
func (e *engine) fromLog() eventSource {
	return func(apply func(uint64, string, *table.Table) error) error {
		return e.log.Replay(e.appliedSeq, apply)
	}
}

// fromBatch streams the batch this engine just committed at seq, in the
// order its segment stores it: the very tables a read-back would decode.
func fromBatch(seq uint64, batch map[string]*table.Table) eventSource {
	return func(apply func(uint64, string, *table.Table) error) error {
		for _, name := range store.SegmentNames(batch) {
			if err := apply(seq, name, batch[name]); err != nil {
				return err
			}
		}
		return nil
	}
}

// fold folds the committed events src streams through the engine's
// maintainer, surfaces any tail segment a replay quarantined, and returns
// the customers the events touched and the event rows applied. Callers
// hold ingestMu, or own an engine not yet published.
func (s *service) fold(e *engine, src eventSource) (map[int64]struct{}, int, error) {
	before := e.inc.Maintainer().Applied()
	affected := map[int64]struct{}{}
	err := src(func(seq uint64, name string, t *table.Table) error {
		ids, _, ierr := e.inc.Ingest(name, t)
		if ierr != nil {
			// A malformed or non-streamable logged table cannot stall the
			// fold forever; it is skipped here and surfaces at merge time.
			log.Printf("churnd: skipping logged %s events at seq %d: %v", name, seq, ierr)
		}
		for _, id := range ids {
			affected[id] = struct{}{}
		}
		e.appliedSeq = seq
		return nil
	})
	if qs := e.log.Quarantines(); len(qs) > e.quarantined {
		for _, q := range qs[e.quarantined:] {
			s.metrics.EventsQuarantined.Add(1)
			log.Printf("churnd: quarantined corrupt event-log tail segment %d -> %s (%s)", q.Seq, q.Path, q.Err)
		}
		e.quarantined = len(qs)
	}
	return affected, e.inc.Maintainer().Applied() - before, err
}

// foldLocked folds src into a published engine and installs each touched
// customer's refreshed serving row, recomputed from the overlay's base row,
// as an overlay override. Callers hold ingestMu. Returns the event rows
// applied and customers refreshed.
func (s *service) foldLocked(e *engine, src eventSource) (int, int, error) {
	affected, applied, err := s.fold(e, src)
	for id := range affected {
		base, ok := e.overlay.Base(id)
		if !ok {
			continue
		}
		row, rerr := e.inc.Refresh(id, base)
		if rerr != nil {
			log.Printf("churnd: refresh imsi %d: %v", id, rerr)
			continue
		}
		e.overlay.Override(id, row)
	}
	return applied, len(affected), err
}

// reload builds a fresh engine from the same options (re-reading artifact,
// warehouse and event log) and swaps it in only if the build fully
// succeeds; a failed build counts a reload_failure and leaves the old
// engine serving. The old scorer is closed after the swap: requests
// already scoring on it complete, and any that race the closure shed with
// 503 + Retry-After like any other transient overload.
func (s *service) reload() error {
	e, err := s.buildEngine()
	if err != nil {
		s.metrics.ReloadFailures.Add(1)
		return err
	}
	s.ingestMu.Lock()
	old := s.cur.Swap(e)
	// Events the old engine took while this one was building.
	if e.ingestReady() {
		if _, _, ferr := s.foldLocked(e, e.fromLog()); ferr != nil {
			log.Printf("churnd: event log replay after reload: %v", ferr)
		}
	}
	s.ingestMu.Unlock()
	if old != nil {
		old.scorer.Close()
	}
	s.metrics.Reloads.Add(1)
	return nil
}

// Close closes the current engine's scorer and flushes any event-log
// commits the durability policy is still holding, so an interval-mode
// daemon exits with its accepted batches on stable storage.
func (s *service) Close() {
	if e := s.cur.Load(); e != nil {
		e.scorer.Close()
		if e.log != nil {
			if err := e.log.Sync(); err != nil {
				log.Printf("churnd: event log sync on close: %v", err)
			}
		}
	}
}

// Handler returns the HTTP mux for the service, wrapped in the lifecycle
// middleware: panics become 500 envelopes (outermost, so it also covers
// the deadline layer), and every request carries the -request-timeout
// deadline.
func (s *service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/score", s.handleScore)
	mux.HandleFunc("/v1/events", s.handleEvents)
	mux.HandleFunc("/v1/refresh", s.handleRefresh)
	mux.HandleFunc("/v1/customers", s.handleCustomers)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return s.recoverPanics(s.withDeadline(mux))
}

// trackedWriter remembers whether a response has started, so the panic
// middleware only writes its envelope onto an untouched response.
type trackedWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackedWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackedWriter) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

// recoverPanics converts a handler panic into a 500 envelope (when the
// response hasn't started) plus a panics_recovered count and a stack in the
// log — one bad request must not take down the daemon. http.ErrAbortHandler
// re-panics: it is net/http's sanctioned way to abort a response.
func (s *service) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackedWriter{ResponseWriter: w}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.metrics.PanicsRecovered.Add(1)
			log.Printf("churnd: recovered panic in %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			if !tw.wrote {
				writeError(tw, http.StatusInternalServerError, "internal", "internal server error", false)
			}
		}()
		next.ServeHTTP(tw, r)
	})
}

// withDeadline attaches the -request-timeout deadline to every request
// context. The scoring path observes it inside Score (504 via scoreStatus);
// the slow handlers check it at their commit points. /v1/refresh rebuilds
// the whole frame, so it gets six budgets.
func (s *service) withDeadline(next http.Handler) http.Handler {
	if s.opts.reqTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := s.opts.reqTimeout
		if r.URL.Path == "/v1/refresh" {
			d *= 6
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// ---- error envelope ----

// apiError is the one error shape every endpoint renders:
// {"error":{"code":"...","message":"...","retryable":bool}}.
type apiError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

type errorResponse struct {
	Error apiError `json:"error"`
}

// writeError renders the envelope; retryable errors carry Retry-After so
// well-behaved clients back off instead of hammering.
func writeError(w http.ResponseWriter, status int, code, msg string, retryable bool) {
	if retryable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: apiError{Code: code, Message: msg, Retryable: retryable}})
}

// scoreStatus maps scoring failures onto the envelope: a full queue is
// load-shed the client should retry (429), a request no queue could ever
// admit is not (413), a closed scorer means a reload is mid-swap (503), a
// dead deadline is a timeout (504), an unknown customer is the caller's
// data (404).
func scoreStatus(err error) (int, string, bool) {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		return http.StatusTooManyRequests, "overloaded", true
	case errors.Is(err, serve.ErrTooManyIDs):
		return http.StatusRequestEntityTooLarge, "request_too_large", false
	case errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable, "unavailable", true
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout", true
	case errors.Is(err, serve.ErrUnknownCustomer):
		return http.StatusNotFound, "unknown_customer", false
	default:
		return http.StatusInternalServerError, "internal", false
	}
}

// ---- handlers ----

// Request-body caps: an unbounded body is memory a client controls. Each is
// far above what a legitimate caller sends — the largest admissible score
// request (4096 ids at the default -queue) is under 100 KB, and
// `churnctl ingest -synth 500 -addr` posts under 100 KB of events.
const (
	maxScoreBody  = 1 << 20
	maxEventsBody = 8 << 20
)

// decodeBody decodes a JSON request body of at most limit bytes into v. The
// body must hold exactly one JSON value (trailing whitespace is fine): a
// second value or trailing junk is rejected rather than silently dropped. On
// failure it renders the envelope itself — 413 for a body over the cap, 400
// for anything else — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	err := dec.Decode(v)
	if err == nil {
		if err = dec.Decode(new(json.RawMessage)); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("more than one JSON value")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "request_too_large", fmt.Sprintf("request body exceeds %d bytes", limit), false)
	} else {
		writeError(w, http.StatusBadRequest, "invalid_request", "bad request body: "+err.Error(), false)
	}
	return false
}

// scoreRequest accepts either a single customer or a batch.
type scoreRequest struct {
	ID  *int64  `json:"id,omitempty"`
	IDs []int64 `json:"ids,omitempty"`
}

type scoreResponse struct {
	Model  string    `json:"model"`
	Month  int       `json:"month"`
	Score  *float64  `json:"score,omitempty"`
	Scores []float64 `json:"scores,omitempty"`
	// Degraded lists the feature groups imputed in the served window
	// ("F3,F6"); omitted when the window is healthy.
	Degraded string `json:"degraded,omitempty"`
}

func (s *service) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only", false)
		return
	}
	var req scoreRequest
	if !decodeBody(w, r, maxScoreBody, &req) {
		return
	}
	single := req.ID != nil
	ids := req.IDs
	if single {
		if len(ids) > 0 {
			writeError(w, http.StatusBadRequest, "invalid_request", `give "id" or "ids", not both`, false)
			return
		}
		ids = []int64{*req.ID}
	} else if len(ids) == 0 {
		writeError(w, http.StatusBadRequest, "invalid_request", `need "id" or a non-empty "ids"`, false)
		return
	}

	e := s.cur.Load()
	scores, err := e.scorer.Score(r.Context(), ids)
	if err != nil {
		status, code, retryable := scoreStatus(err)
		writeError(w, status, code, err.Error(), retryable)
		return
	}
	resp := scoreResponse{Model: e.model, Month: e.month}
	if deg := e.overlay.Info().Degradation; !deg.Empty() {
		resp.Degraded = deg.String()
	}
	if single {
		resp.Score = &scores[0]
	} else {
		resp.Scores = scores
	}
	writeJSON(w, http.StatusOK, resp)
}

// eventsResponse reports one accepted ingest batch: the durable log
// sequence it landed at, how many rows folded into the serving month, and
// how many customers' vectors were refreshed in place.
type eventsResponse struct {
	Seq      uint64 `json:"seq"`
	Received int    `json:"received"`
	Applied  int    `json:"applied"`
	Affected int    `json:"affected"`
	// StaleVectors is the live-override count after the fold — customers
	// served ahead of the last full build (gauge, also in /metrics).
	StaleVectors int `json:"stale_vectors"`
	Month        int `json:"month"`
}

func (s *service) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only", false)
		return
	}
	var req serve.EventBatch
	if !decodeBody(w, r, maxEventsBody, &req) {
		s.metrics.EventsRejected.Add(1)
		return
	}
	tables, err := serve.BuildEventTables(req.Events)
	if err != nil {
		s.metrics.EventsRejected.Add(uint64(len(req.Events)))
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error(), false)
		return
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	e := s.cur.Load()
	if e == nil || !e.ingestReady() {
		writeError(w, http.StatusServiceUnavailable, "unavailable", errIngestUnavailable.Error(), true)
		return
	}
	// Commit point: the deadline is only honored before the durable append —
	// once the batch is in the log it will be folded, not half-applied.
	if r.Context().Err() != nil {
		writeError(w, http.StatusGatewayTimeout, "timeout", "request deadline expired before commit", true)
		return
	}
	// Durability first: the batch is committed to the log before anything
	// folds, so a crash between the two replays it on restart.
	seq, err := e.log.Append(tables)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "unavailable", "event log append: "+err.Error(), true)
		return
	}
	// Fold the parsed batch when it landed right after the last folded
	// segment; otherwise another handle appended in between, and the log
	// is read back from there, this batch included.
	src := e.fromLog()
	if seq == e.appliedSeq+1 {
		src = fromBatch(seq, tables)
	}
	applied, affected, err := s.foldLocked(e, src)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "unavailable", "event fold: "+err.Error(), true)
		return
	}
	s.metrics.EventsIngested.Add(uint64(applied))
	writeJSON(w, http.StatusOK, eventsResponse{
		Seq:          seq,
		Received:     len(req.Events),
		Applied:      applied,
		Affected:     affected,
		StaleVectors: e.overlay.Overridden(),
		Month:        e.month,
	})
}

// refreshResponse reports one completed serving-base rebuild.
type refreshResponse struct {
	Seq          uint64 `json:"seq"`
	Rows         int    `json:"rows"`
	StaleVectors int    `json:"stale_vectors"`
	Degraded     string `json:"degraded,omitempty"`
	TookMs       int64  `json:"took_ms"`
}

// handleRefresh rebuilds the serving frame from the maintainer's tables —
// the served month with every logged event folded in, so the full build
// (graph and topic groups included) reads no raw partition and replays no
// log — and swaps it under the overlay atomically. The tables are
// snapshotted under ingestMu and the build runs without locks (scoring and
// ingest continue); only the final swap serializes with ingest.
func (s *service) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only", false)
		return
	}
	if s.draining.Load() {
		// A refresh is a multi-second rebuild; don't start one the drain
		// budget would abort.
		writeError(w, http.StatusServiceUnavailable, "unavailable", "draining", true)
		return
	}
	e := s.cur.Load()
	if e == nil || !e.ingestReady() {
		writeError(w, http.StatusServiceUnavailable, "unavailable", errIngestUnavailable.Error(), true)
		return
	}
	if !s.refreshing.CompareAndSwap(false, true) {
		writeError(w, http.StatusTooManyRequests, "refresh_in_progress", "a refresh is already running", true)
		return
	}
	defer s.refreshing.Store(false)
	start := time.Now()

	// Fold anything pending, then snapshot the maintained tables.
	s.ingestMu.Lock()
	if _, _, err := s.foldLocked(e, e.fromLog()); err != nil {
		s.ingestMu.Unlock()
		s.metrics.RefreshFailures.Add(1)
		writeError(w, http.StatusServiceUnavailable, "unavailable", "pre-refresh fold: "+err.Error(), true)
		return
	}
	view := e.inc.View(e.rs.Source)
	snapSeq := e.appliedSeq
	s.ingestMu.Unlock()

	exhausted := e.rs.Exhausted()
	newFrame, err := s.newFrame(e, view)
	s.metrics.RetriesExhausted.Add(e.rs.Exhausted() - exhausted)
	if err != nil {
		s.metrics.RefreshFailures.Add(1)
		writeError(w, http.StatusServiceUnavailable, "unavailable", "rebuild serving frame: "+err.Error(), true)
		return
	}

	// The swap is cheap, but a client whose deadline has already expired
	// gets the 504 now rather than a success it will never read.
	if r.Context().Err() != nil {
		s.metrics.RefreshFailures.Add(1)
		writeError(w, http.StatusGatewayTimeout, "timeout", "request deadline expired during rebuild", true)
		return
	}

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.cur.Load() != e {
		// A SIGHUP reload swapped engines mid-build; its frame is at least
		// as fresh as ours, so this refresh simply yields.
		s.metrics.RefreshFailures.Add(1)
		writeError(w, http.StatusServiceUnavailable, "unavailable", "engine reloaded during refresh, retry", true)
		return
	}
	// Overrides for events the new base already covers retire; events that
	// arrived while the build ran (appliedSeq moved past the snapshot)
	// recompute against the new base.
	var recompute func(id int64, base []float64) ([]float64, error)
	if e.appliedSeq > snapSeq {
		recompute = func(id int64, base []float64) ([]float64, error) {
			return e.inc.Refresh(id, base)
		}
	}
	if err := e.overlay.Swap(newFrame, recompute); err != nil {
		s.metrics.RefreshFailures.Add(1)
		writeError(w, http.StatusServiceUnavailable, "unavailable", "swap: "+err.Error(), true)
		return
	}
	info := newFrame.Info()
	s.metrics.DegradedMask.Store(uint64(info.Degradation))
	s.metrics.Refreshes.Add(1)
	s.metrics.RefreshUnixNano.Store(time.Now().UnixNano())
	resp := refreshResponse{
		Seq:          snapSeq,
		Rows:         info.Rows,
		StaleVectors: e.overlay.Overridden(),
		TookMs:       time.Since(start).Milliseconds(),
	}
	if !info.Degradation.Empty() {
		resp.Degraded = info.Degradation.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is the liveness probe: 200 whenever the process can answer,
// regardless of engine state — restarts are for hangs, not for degraded
// windows or mid-reload gaps.
func (s *service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"status": "ok"}
	if e := s.cur.Load(); e != nil {
		info := e.overlay.Info()
		body["model"] = e.model
		body["month"] = e.month
		body["customers"] = info.Rows
		body["features"] = len(e.pipe.FeatureNames())
		body["schema"] = fmt.Sprintf("%08x", e.pipe.SchemaChecksum())
		body["provider"] = info.Source
		body["degraded"] = info.Degradation.String()
		body["stale_vectors"] = info.Overridden
		body["ingest"] = e.ingestReady()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz is the readiness probe: 200 only while an engine is loaded
// and accepting scores. A degraded window is still ready (it serves, with
// the mask reported); a closed or absent engine is not.
func (s *service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Shutdown in progress: tell balancers to route elsewhere while
		// in-flight requests finish.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	e := s.cur.Load()
	if e == nil || e.scorer.Closed() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unready"})
		return
	}
	info := e.overlay.Info()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ready",
		"month":         e.month,
		"provider":      info.Source,
		"degraded":      info.Degradation.String(),
		"stale_vectors": info.Overridden,
		"ingest":        e.ingestReady(),
		"schema":        fmt.Sprintf("%08x", e.pipe.SchemaChecksum()),
	})
}

// handleCustomers lists the scorable customer ids — the discovery endpoint
// load generators (churnload) and smoke checks use to pick real targets.
func (s *service) handleCustomers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only", false)
		return
	}
	e := s.cur.Load()
	if e == nil {
		writeError(w, http.StatusServiceUnavailable, "unavailable", "no engine loaded", true)
		return
	}
	info := e.overlay.Info()
	ids := e.overlay.IDs()
	if lim := r.URL.Query().Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid_request", "limit must be a non-negative integer", false)
			return
		}
		if n < len(ids) {
			ids = ids[:n]
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"month":  e.month,
		"count":  info.Rows,
		"source": info.Source,
		"ids":    ids,
	})
}

func (s *service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	if e := s.cur.Load(); e != nil {
		// The serving path reports itself the same way here as in
		// /healthz and /readyz.
		info := e.overlay.Info()
		snap["provider"] = info.Source
		snap["provider_rows"] = info.Rows
	}
	writeJSON(w, http.StatusOK, snap)
}

// writeJSON marshals v before it commits a status, so a value JSON cannot
// carry (a NaN score) becomes the 500 "internal" envelope rather than a
// 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "internal server error", false)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}
