package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"telcochurn/internal/core"
	"telcochurn/internal/features"
	"telcochurn/internal/serve"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/tree"
)

// makeWorld generates a warehouse, trains and saves an artifact, and
// returns healthy batch predictions for the latest month.
func makeWorld(t *testing.T) (whDir, artifact string, want *core.Predictions) {
	t.Helper()
	return makeWorldPrecomputed(t, false)
}

// makeWorldPrecomputed is makeWorld whose artifact optionally carries the
// served month's precomputed vectors (churnctl train -precompute), which
// churnd serves only when the warehouse frame does not build, and is
// trained on groups (none = F1 only).
func makeWorldPrecomputed(t testing.TB, precompute bool, groups ...features.Group) (whDir, artifact string, want *core.Predictions) {
	t.Helper()
	dir := t.TempDir()
	whDir = filepath.Join(dir, "wh")
	artifact = filepath.Join(dir, "model.tcpa")

	cfg := synth.DefaultConfig()
	cfg.Customers = 400
	cfg.Months = 4
	cfg.Seed = 5
	wh, err := store.Open(whDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.GenerateToWarehouse(cfg, wh); err != nil {
		t.Fatal(err)
	}
	src := core.NewWarehouseSource(wh, cfg.DaysPerMonth)
	pipe, err := core.Fit(src, []core.WindowSpec{core.MonthSpec(2, cfg.DaysPerMonth)}, core.Config{
		Groups: groups,
		Forest: tree.ForestConfig{NumTrees: 10, MinLeafSamples: 10, Seed: 1},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if precompute {
		if err := pipe.Precompute(src, features.MonthWindow(4, cfg.DaysPerMonth), 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.SaveFile(artifact); err != nil {
		t.Fatal(err)
	}
	want, err = pipe.Predict(src, features.MonthWindow(4, cfg.DaysPerMonth))
	if err != nil {
		t.Fatal(err)
	}
	return whDir, artifact, want
}

// buildTestService assembles the service exactly like churnd's main does.
func buildTestService(t *testing.T) (*service, *core.Predictions) {
	t.Helper()
	whDir, artifact, want := makeWorld(t)
	svc, err := buildService(serviceOpts{
		artifact:  artifact,
		warehouse: whDir,
	})
	if err != nil {
		t.Fatalf("buildService: %v", err)
	}
	t.Cleanup(svc.Close)
	return svc, want
}

func postScore(t *testing.T, ts *httptest.Server, body string) (int, scoreResponse, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var sr scoreResponse
	json.Unmarshal(buf.Bytes(), &sr)
	return resp.StatusCode, sr, buf.String()
}

// TestServedScoresMatchBatchPredict is the serving contract: scores over
// HTTP are bit-identical to Pipeline.Predict for the same artifact/month.
func TestServedScoresMatchBatchPredict(t *testing.T) {
	svc, want := buildTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Batch request over every customer.
	body, _ := json.Marshal(scoreRequest{IDs: want.IDs})
	status, sr, raw := postScore(t, ts, string(body))
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	if len(sr.Scores) != len(want.IDs) {
		t.Fatalf("got %d scores, want %d", len(sr.Scores), len(want.IDs))
	}
	for i := range want.IDs {
		if sr.Scores[i] != want.Scores[i] {
			t.Fatalf("customer %d: served %v, batch %v", want.IDs[i], sr.Scores[i], want.Scores[i])
		}
	}
	if sr.Model != "RF" || sr.Month != 4 {
		t.Errorf("model/month = %s/%d, want RF/4", sr.Model, sr.Month)
	}

	// Single-customer form.
	id := want.IDs[7]
	status, sr, raw = postScore(t, ts, `{"id":`+int64String(id)+`}`)
	if status != http.StatusOK {
		t.Fatalf("single status %d: %s", status, raw)
	}
	if sr.Score == nil || *sr.Score != want.Scores[7] {
		t.Fatalf("single score %v, want %v", sr.Score, want.Scores[7])
	}
}

func int64String(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestScoreEndpointErrors(t *testing.T) {
	svc, _ := buildTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	status, _, _ := postScore(t, ts, `{"id":99999999}`)
	if status != http.StatusNotFound {
		t.Errorf("unknown customer: status %d, want 404", status)
	}
	status, _, _ = postScore(t, ts, `{}`)
	if status != http.StatusBadRequest {
		t.Errorf("empty request: status %d, want 400", status)
	}
	status, _, _ = postScore(t, ts, `not json`)
	if status != http.StatusBadRequest {
		t.Errorf("bad json: status %d, want 400", status)
	}
	status, _, _ = postScore(t, ts, `{"id":1,"ids":[2]}`)
	if status != http.StatusBadRequest {
		t.Errorf("both id and ids: status %d, want 400", status)
	}
	resp, err := http.Get(ts.URL + "/v1/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET score: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	svc, want := buildTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "ok" || health["model"] != "RF" {
		t.Errorf("healthz = %v", health)
	}
	if int(health["customers"].(float64)) != len(want.IDs) {
		t.Errorf("customers = %v, want %d", health["customers"], len(want.IDs))
	}

	// Score twice, then check the counters.
	body, _ := json.Marshal(scoreRequest{IDs: want.IDs[:3]})
	postScore(t, ts, string(body))
	postScore(t, ts, string(body))

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	if metrics["requests"].(float64) != 2 {
		t.Errorf("requests = %v, want 2", metrics["requests"])
	}
	if metrics["scored"].(float64) != 6 {
		t.Errorf("scored = %v, want 6", metrics["scored"])
	}
	if _, ok := metrics["latency_ns"].(map[string]any); !ok {
		t.Errorf("latency_ns missing: %v", metrics["latency_ns"])
	}
	if _, ok := metrics["queue_full"]; !ok {
		t.Error("queue_full missing")
	}
	// There is no batcher to describe any more.
	for _, gone := range []string{"batches", "batch_size", "sync_scored"} {
		if _, ok := metrics[gone]; ok {
			t.Errorf("/metrics still reports %q", gone)
		}
	}
}

func getJSON(t *testing.T, url string) (int, map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body, resp.Header
}

// TestReadyzAndRetryAfter: readiness tracks the engine's ability to score,
// and every 503 carries a Retry-After hint.
func TestReadyzAndRetryAfter(t *testing.T) {
	svc, want := buildTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	status, body, _ := getJSON(t, ts.URL+"/readyz")
	if status != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz = %d %v, want 200 ready", status, body)
	}
	if body["degraded"] != "none" {
		t.Errorf("healthy readyz degraded = %v, want none", body["degraded"])
	}

	// A closed scorer (mid-swap window, or shutdown) flips readiness but
	// not liveness, and sheds scores with Retry-After.
	svc.Close()
	status, _, hdr := getJSON(t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("readyz after close = %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("unready readyz missing Retry-After")
	}
	if status, _, _ := getJSON(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz after close = %d, want 200 (liveness is process-level)", status)
	}
	body2, _ := json.Marshal(scoreRequest{IDs: want.IDs[:1]})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("score on closed scorer = %d (Retry-After %q), want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestHotReload: a good reload swaps engines without dropping the service;
// a bad artifact is rejected and the previous engine keeps serving.
func TestHotReload(t *testing.T) {
	svc, want := buildTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	scoreOK := func(label string) {
		body, _ := json.Marshal(scoreRequest{IDs: want.IDs[:3]})
		status, sr, raw := postScore(t, ts, string(body))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", label, status, raw)
		}
		for i := range sr.Scores {
			if sr.Scores[i] != want.Scores[i] {
				t.Fatalf("%s: score[%d] = %v, want %v", label, i, sr.Scores[i], want.Scores[i])
			}
		}
	}
	scoreOK("before reload")
	if err := svc.reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}
	scoreOK("after reload")

	// Corrupt the artifact on disk: validate-then-swap must reject it and
	// keep the old engine.
	if err := os.WriteFile(svc.opts.artifact, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := svc.reload(); err == nil {
		t.Fatal("reload of corrupt artifact succeeded")
	}
	scoreOK("after rejected reload")

	_, metrics, _ := getJSON(t, ts.URL+"/metrics")
	if metrics["reloads"].(float64) != 1 || metrics["reload_failures"].(float64) != 1 {
		t.Errorf("reloads/failures = %v/%v, want 1/1", metrics["reloads"], metrics["reload_failures"])
	}
}

// TestDegradedServing: with -degraded, a warehouse missing a raw table
// still serves, reporting the imputed groups everywhere a caller can look.
func TestDegradedServing(t *testing.T) {
	whDir, artifact, want := makeWorld(t)
	if err := os.RemoveAll(filepath.Join(whDir, synth.TableWeb)); err != nil {
		t.Fatal(err)
	}

	// Strict mode refuses the window.
	if _, err := buildService(serviceOpts{artifact: artifact, warehouse: whDir}); err == nil {
		t.Fatal("strict buildService served a warehouse with a missing table")
	}

	svc, err := buildService(serviceOpts{artifact: artifact, warehouse: whDir, degraded: true})
	if err != nil {
		t.Fatalf("degraded buildService: %v", err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	status, ready, _ := getJSON(t, ts.URL+"/readyz")
	if status != http.StatusOK || ready["degraded"] != "F1" {
		t.Errorf("readyz = %d degraded=%v, want 200 F1", status, ready["degraded"])
	}
	body, _ := json.Marshal(scoreRequest{IDs: want.IDs})
	status, sr, raw := postScore(t, ts, string(body))
	if status != http.StatusOK {
		t.Fatalf("degraded score: %d: %s", status, raw)
	}
	if sr.Degraded != "F1" {
		t.Errorf("score response degraded = %q, want F1", sr.Degraded)
	}
	if len(sr.Scores) != len(want.IDs) {
		t.Fatalf("scored %d, want %d", len(sr.Scores), len(want.IDs))
	}
	for _, s := range sr.Scores {
		if s < 0 || s > 1 {
			t.Fatalf("degraded score out of range: %v", s)
		}
	}
	_, metrics, _ := getJSON(t, ts.URL+"/metrics")
	if metrics["degraded_groups"] != "F1" {
		t.Errorf("metrics degraded_groups = %v, want F1", metrics["degraded_groups"])
	}
	if metrics["degraded_mask"].(float64) == 0 {
		t.Error("metrics degraded_mask = 0, want non-zero")
	}
}

// errEnvelope mirrors the one error shape every endpoint must render.
type errEnvelope struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		Retryable bool   `json:"retryable"`
	} `json:"error"`
}

func doRequest(t *testing.T, ts *httptest.Server, method, path, body string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), resp.Header
}

// TestErrorEnvelope pins the API's single error shape across endpoints and
// status codes: {"error":{"code","message","retryable"}}, with Retry-After
// on every retryable response.
func TestErrorEnvelope(t *testing.T) {
	svc, want := buildTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	recharge := `{"table":"recharges","imsi":` + int64String(want.IDs[0]) + `,"month":4,"day":9,"fields":{"amount":500}}`
	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
		retryable                bool
	}{
		{"score bad json", "POST", "/v1/score", `not json`, 400, "invalid_request", false},
		{"score empty", "POST", "/v1/score", `{}`, 400, "invalid_request", false},
		{"score both forms", "POST", "/v1/score", `{"id":1,"ids":[2]}`, 400, "invalid_request", false},
		{"score unknown customer", "POST", "/v1/score", `{"id":99999999}`, 404, "unknown_customer", false},
		{"score wrong method", "GET", "/v1/score", ``, 405, "method_not_allowed", false},
		{"events wrong method", "GET", "/v1/events", ``, 405, "method_not_allowed", false},
		{"events bad json", "POST", "/v1/events", `not json`, 400, "invalid_request", false},
		{"events empty batch", "POST", "/v1/events", `{"events":[]}`, 400, "invalid_request", false},
		{"events unknown table", "POST", "/v1/events", `{"events":[{"table":"billing","imsi":1,"month":4,"day":1}]}`, 400, "invalid_request", false},
		{"events unknown column", "POST", "/v1/events", `{"events":[{"table":"recharges","imsi":1,"month":4,"day":1,"fields":{"amonut":3}}]}`, 400, "invalid_request", false},
		{"events integer past int64", "POST", "/v1/events", `{"events":[{"table":"calls","imsi":1,"month":4,"day":1,"fields":{"peer":9223372036854775808}}]}`, 400, "invalid_request", false},
		{"refresh wrong method", "GET", "/v1/refresh", ``, 405, "method_not_allowed", false},
		{"customers wrong method", "POST", "/v1/customers", ``, 405, "method_not_allowed", false},
		{"customers bad limit", "GET", "/v1/customers?limit=-1", ``, 400, "invalid_request", false},
		// One id more than the default -queue admits; ids may repeat, and the
		// size check runs before any lookup.
		{"score too many ids", "POST", "/v1/score", `{"ids":[` + strings.Repeat("1,", 4096) + `1]}`, 413, "request_too_large", false},
		// JSON whitespace pads these just past each endpoint's body cap.
		{"score body over cap", "POST", "/v1/score", `{"ids":[` + strings.Repeat(" ", maxScoreBody) + `1]}`, 413, "request_too_large", false},
		{"events body over cap", "POST", "/v1/events", `{"events":[` + strings.Repeat(" ", maxEventsBody) + `]}`, 413, "request_too_large", false},
		// A body is one JSON value: whatever follows it is refused, not
		// dropped (the second batch here would otherwise be lost silently).
		{"score trailing junk", "POST", "/v1/score", `{"id":1} junk`, 400, "invalid_request", false},
		{"events second value", "POST", "/v1/events", `{"events":[` + recharge + `]}{"events":[` + recharge + `]}`, 400, "invalid_request", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, hdr := doRequest(t, ts, tc.method, tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (%s)", status, tc.status, body)
			}
			var env errEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("not an envelope: %s", body)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code %q, want %q", env.Error.Code, tc.code)
			}
			if env.Error.Message == "" {
				t.Error("empty message")
			}
			if env.Error.Retryable != tc.retryable {
				t.Errorf("retryable %v, want %v", env.Error.Retryable, tc.retryable)
			}
			if tc.retryable && hdr.Get("Retry-After") == "" {
				t.Error("retryable without Retry-After")
			}
		})
	}

	// No rejected batch reached the event log, and trailing whitespace after
	// the one value stays legal.
	if e := svc.cur.Load(); e.log == nil {
		t.Error("test service takes no events")
	} else if seq := e.log.LastSeq(); seq != 0 {
		t.Errorf("a rejected batch reached the event log at seq %d", seq)
	}
	if status, body, _ := doRequest(t, ts, "POST", "/v1/score", `{"id":`+int64String(want.IDs[0])+"}\n\t "); status != http.StatusOK {
		t.Errorf("score with trailing whitespace = %d %s, want 200", status, body)
	}

	// A refresh already in flight sheds further refreshes with 429.
	svc.refreshing.Store(true)
	status, body, hdr := doRequest(t, ts, "POST", "/v1/refresh", ``)
	svc.refreshing.Store(false)
	var env errEnvelope
	json.Unmarshal(body, &env)
	if status != 429 || env.Error.Code != "refresh_in_progress" || !env.Error.Retryable || hdr.Get("Retry-After") == "" {
		t.Errorf("busy refresh = %d %s (Retry-After %q), want 429 refresh_in_progress retryable", status, body, hdr.Get("Retry-After"))
	}

	// A request shed by admission is a 429 the client should retry (the
	// scorer's own TestScorerQueueFull produces the error; this pins how it
	// renders).
	rec := httptest.NewRecorder()
	status, code, retryable := scoreStatus(serve.ErrQueueFull)
	writeError(rec, status, code, serve.ErrQueueFull.Error(), retryable)
	if rec.Code != 429 || code != "overloaded" || !retryable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("shed request = %d %s (Retry-After %q), want 429 overloaded retryable", rec.Code, code, rec.Header().Get("Retry-After"))
	}

	// A closed scorer is a 503.
	svc.Close()
	status, body, hdr = doRequest(t, ts, "POST", "/v1/score", `{"id":`+int64String(want.IDs[0])+`}`)
	json.Unmarshal(body, &env)
	if status != 503 || env.Error.Code != "unavailable" || !env.Error.Retryable || hdr.Get("Retry-After") == "" {
		t.Errorf("closed scorer = %d %s, want 503 unavailable retryable with Retry-After", status, body)
	}
}

// fixtures are the two artifact kinds churnd serves: a plain one and a
// precomputed one (train -precompute, as loadtest and the benchmark serve),
// with the boot provider each yields: the warehouse frame either way.
var fixtures = []struct {
	name       string
	precompute bool
	provider   string
}{
	{"plain artifact", false, "frame"},
	{"precomputed artifact", true, "frame"},
}

// TestIngestFreshnessAndRefresh is the streaming contract end to end at the
// HTTP layer: a posted event changes the customer's served vector within
// the same call, and the incrementally refreshed score is bit-identical to
// the one a full rebuild over the event log produces (/v1/refresh). It runs
// over a plain artifact and a precomputed one (train -precompute, as
// loadtest and the benchmark serve): the frame answers either way, never
// the train-time snapshot.
func TestIngestFreshnessAndRefresh(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			whDir, artifact, want := makeWorldPrecomputed(t, fx.precompute)
			svc, err := buildService(serviceOpts{artifact: artifact, warehouse: whDir})
			if err != nil {
				t.Fatalf("buildService: %v", err)
			}
			t.Cleanup(svc.Close)
			if got := svc.cur.Load().overlay.Info().Source; got != fx.provider {
				t.Fatalf("boot provider = %q, want %q", got, fx.provider)
			}
			testIngestFreshnessAndRefresh(t, svc, want)
		})
	}
}

func testIngestFreshnessAndRefresh(t *testing.T, svc *service, want *core.Predictions) {
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	id := want.IDs[3]
	other := want.IDs[5]

	// Two recharges for the served month (4) — they move the F1 recharge
	// aggregates with certainty.
	batch := `{"events":[
		{"table":"recharges","imsi":` + int64String(id) + `,"month":4,"day":9,"fields":{"amount":500}},
		{"table":"recharges","imsi":` + int64String(id) + `,"month":4,"day":21,"fields":{"amount":250}}]}`
	status, body, _ := doRequest(t, ts, "POST", "/v1/events", batch)
	if status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}
	var ev eventsResponse
	json.Unmarshal(body, &ev)
	if ev.Seq != 1 || ev.Received != 2 || ev.Applied != 2 || ev.Affected != 1 || ev.StaleVectors != 1 || ev.Month != 4 {
		t.Fatalf("ingest response = %+v, want seq 1, 2 received, 2 applied, 1 affected, 1 stale, month 4", ev)
	}

	// The served vector moved off the frame's within the ingest call.
	e := svc.cur.Load()
	served, _ := e.overlay.Vector(id)
	base, _ := e.overlay.Base(id)
	changed := false
	for i := range served {
		if served[i] != base[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("ingest did not change the served vector")
	}

	status, sr, raw := postScore(t, ts, `{"id":`+int64String(id)+`}`)
	if status != http.StatusOK {
		t.Fatalf("post-ingest score: %d %s", status, raw)
	}
	fresh := *sr.Score
	if status, srOther, _ := postScore(t, ts, `{"id":`+int64String(other)+`}`); status != 200 || *srOther.Score != want.Scores[5] {
		t.Errorf("unaffected customer moved: %v, want %v", *srOther.Score, want.Scores[5])
	}

	_, metrics, _ := getJSON(t, ts.URL+"/metrics")
	if metrics["events_ingested"].(float64) != 2 || metrics["stale_vectors"].(float64) != 1 {
		t.Errorf("metrics ingested/stale = %v/%v, want 2/1", metrics["events_ingested"], metrics["stale_vectors"])
	}

	// Full rebuild over the event log: overrides retire, scores must not
	// move — the incremental fold already equals the rebuilt frame.
	status, body, _ = doRequest(t, ts, "POST", "/v1/refresh", ``)
	if status != http.StatusOK {
		t.Fatalf("refresh: %d %s", status, body)
	}
	var rr refreshResponse
	json.Unmarshal(body, &rr)
	if rr.Rows != len(want.IDs) || rr.StaleVectors != 0 || rr.Seq != 1 {
		t.Fatalf("refresh response = %+v, want %d rows, 0 stale, seq 1", rr, len(want.IDs))
	}
	if svc.cur.Load().overlay.Overridden() != 0 {
		t.Error("overrides survived the refresh")
	}
	// The served vector is the rebuilt frame's row, which the incremental
	// override already equalled bit for bit. Scores alone cannot tell: ten
	// trees may not split on the columns that moved.
	rebuilt, _ := e.overlay.Vector(id)
	frameRow, _ := e.overlay.Base(id)
	for i := range served {
		if math.Float64bits(rebuilt[i]) != math.Float64bits(served[i]) {
			t.Fatalf("col %q after refresh: served %v, pre-refresh override %v", e.overlay.FeatureNames()[i], rebuilt[i], served[i])
		}
		if math.Float64bits(rebuilt[i]) != math.Float64bits(frameRow[i]) {
			t.Fatalf("col %q after refresh: served %v, rebuilt frame %v", e.overlay.FeatureNames()[i], rebuilt[i], frameRow[i])
		}
	}
	status, sr, raw = postScore(t, ts, `{"id":`+int64String(id)+`}`)
	if status != http.StatusOK {
		t.Fatalf("post-refresh score: %d %s", status, raw)
	}
	if *sr.Score != fresh {
		t.Fatalf("incremental score %v != rebuilt score %v (bit-identity broken)", fresh, *sr.Score)
	}

	_, metrics, _ = getJSON(t, ts.URL+"/metrics")
	if metrics["refreshes"].(float64) != 1 || metrics["stale_vectors"].(float64) != 0 {
		t.Errorf("metrics refreshes/stale = %v/%v, want 1/0", metrics["refreshes"], metrics["stale_vectors"])
	}
	if age := metrics["refresh_age_seconds"].(float64); age < 0 || age > 60 {
		t.Errorf("refresh_age_seconds = %v", age)
	}

	// Ingest keeps working after the swap (sequence numbers stay monotone
	// across the rebuild).
	batch2 := `{"events":[{"table":"recharges","imsi":` + int64String(id) + `,"month":4,"day":25,"fields":{"amount":10}}]}`
	status, body, _ = doRequest(t, ts, "POST", "/v1/events", batch2)
	if status != http.StatusOK {
		t.Fatalf("second ingest: %d %s", status, body)
	}
	json.Unmarshal(body, &ev)
	if ev.Seq != 2 || ev.Applied != 1 || ev.StaleVectors != 1 {
		t.Fatalf("second ingest = %+v, want seq 2, 1 applied, 1 stale", ev)
	}
}

// servedVectors returns the vector svc currently serves for each id.
func servedVectors(t *testing.T, svc *service, ids []int64) [][]float64 {
	t.Helper()
	out := make([][]float64, len(ids))
	for i, id := range ids {
		vec, ok := svc.cur.Load().overlay.Vector(id)
		if !ok {
			t.Fatalf("imsi %d not served", id)
		}
		out[i] = vec
	}
	return out
}

// sameVectors fails unless got and want are Float64bits-equal row by row.
func sameVectors(t *testing.T, what string, ids []int64, got, want [][]float64) {
	t.Helper()
	for i, id := range ids {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: imsi %d has %d columns, want %d", what, id, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: imsi %d col %d = %v, want %v", what, id, j, got[i][j], want[i][j])
			}
		}
	}
}

// rechargeBatch is one /v1/events body: a served-month recharge for each id.
func rechargeBatch(ids []int64) string {
	evs := make([]string, len(ids))
	for i, id := range ids {
		evs[i] = `{"table":"recharges","imsi":` + int64String(id) + `,"month":4,"day":9,"fields":{"amount":500}}`
	}
	return `{"events":[` + strings.Join(evs, ",") + `]}`
}

// TestRestartReplaysEventLog: a service restarted over a warehouse with
// unmerged logged events serves them immediately — boot folds the log into
// the served month before building the frame, and each logged customer is
// served the vector the first service served, bit for bit. With a
// -precompute artifact this also pins that the train-time snapshot cannot
// hide a logged customer's events.
func TestRestartReplaysEventLog(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			whDir, artifact, want := makeWorldPrecomputed(t, fx.precompute)
			opts := serviceOpts{artifact: artifact, warehouse: whDir}
			svc, err := buildService(opts)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(svc.Handler())
			ids := want.IDs[3:7]
			if status, body, _ := doRequest(t, ts, "POST", "/v1/events", rechargeBatch(ids)); status != http.StatusOK {
				t.Fatalf("ingest: %d %s", status, body)
			}
			fresh := servedVectors(t, svc, ids)
			ts.Close()
			svc.Close()

			// "Restart": a brand-new service over the same warehouse and artifact.
			svc2, err := buildService(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer svc2.Close()
			sameVectors(t, "after restart", ids, servedVectors(t, svc2, ids), fresh)
		})
	}
}

// callBatch is one /v1/events body: n answered calls in the served month,
// alternating direction between customers a and b.
func callBatch(a, b int64, n int) string {
	evs := make([]string, n)
	for i := range evs {
		from, to := a, b
		if i%2 == 1 {
			from, to = b, a
		}
		evs[i] = `{"table":"calls","imsi":` + int64String(from) + `,"month":4,"day":` + strconv.Itoa(3+4*i) +
			`,"fields":{"peer":` + int64String(to) + `,"dur":240,"mo":1,"success":1}}`
	}
	return `{"events":[` + strings.Join(evs, ",") + `]}`
}

// TestBootServesMergedRebuild is the boot contract over a -precompute
// artifact with a graph group: calls logged between two served customers
// move the call graph, so PageRank shifts for customers no event touched
// too. A service booted over that log serves every customer, touched or
// not, the row a merged rebuild gives, bit for bit — the boot frame is the
// one base, not the train-time snapshot.
func TestBootServesMergedRebuild(t *testing.T) {
	whDir, artifact, want := makeWorldPrecomputed(t, true, features.F1Baseline, features.F4CallGraph)
	wh, err := store.Open(whDir)
	if err != nil {
		t.Fatal(err)
	}
	elog, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	var batch serve.EventBatch
	if err := json.Unmarshal([]byte(callBatch(want.IDs[3], want.IDs[5], 5)), &batch); err != nil {
		t.Fatal(err)
	}
	tables, err := serve.BuildEventTables(batch.Events)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := elog.Append(tables); err != nil {
		t.Fatal(err)
	}

	svc, err := buildService(serviceOpts{artifact: artifact, warehouse: whDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sameVectors(t, "boot vs merged rebuild", want.IDs, servedVectors(t, svc, want.IDs),
		mergedRebuild(t, whDir, artifact, false, want.IDs))
	if got := svc.cur.Load().overlay.Info().Source; got != "frame" {
		t.Errorf("boot provider = %q, want frame", got)
	}
}

// TestIngestFoldsDirectAppend: a batch appended through a second event-log
// handle between two posts — churnctl ingest without -addr — is not lost.
// Its segment takes the next number, so the second post lands one further
// on and folds the log back from the last folded segment: all three
// batches are applied, and the served vectors equal a restarted service's
// and a merged rebuild's.
func TestIngestFoldsDirectAppend(t *testing.T) {
	whDir, artifact, want := makeWorld(t)
	opts := serviceOpts{artifact: artifact, warehouse: whDir}
	svc, err := buildService(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	ids := want.IDs[3:9]
	post := func(batch []int64) eventsResponse {
		t.Helper()
		status, body, _ := doRequest(t, ts, "POST", "/v1/events", rechargeBatch(batch))
		if status != http.StatusOK {
			t.Fatalf("ingest: %d %s", status, body)
		}
		var ev eventsResponse
		json.Unmarshal(body, &ev)
		return ev
	}
	if ev := post(ids[0:2]); ev.Seq != 1 || ev.Applied != 2 {
		t.Fatalf("first post = %+v, want seq 1, 2 applied", ev)
	}

	wh, err := store.Open(whDir)
	if err != nil {
		t.Fatal(err)
	}
	elog, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	var direct serve.EventBatch
	if err := json.Unmarshal([]byte(rechargeBatch(ids[2:4])), &direct); err != nil {
		t.Fatal(err)
	}
	tables, err := serve.BuildEventTables(direct.Events)
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := elog.Append(tables); err != nil || seq != 2 {
		t.Fatalf("direct append: seq %d, %v; want seq 2", seq, err)
	}

	if ev := post(ids[4:6]); ev.Seq != 3 || ev.Applied != 4 || ev.Affected != 4 {
		t.Fatalf("second post = %+v, want seq 3, 4 applied, 4 affected", ev)
	}
	if _, metrics, _ := getJSON(t, ts.URL+"/metrics"); metrics["events_ingested"] != float64(6) {
		t.Errorf("events_ingested = %v, want 6", metrics["events_ingested"])
	}
	served := servedVectors(t, svc, want.IDs)

	restarted, err := buildService(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	sameVectors(t, "after restart", want.IDs, servedVectors(t, restarted, want.IDs), served)
	sameVectors(t, "merged rebuild", want.IDs, mergedRebuild(t, whDir, artifact, false, want.IDs), served)
}

// mergedRebuild merges the warehouse's event log into its partitions and
// returns the vectors a from-scratch build of the served month gives ids,
// degraded or strict.
func mergedRebuild(t *testing.T, whDir, artifact string, degraded bool, ids []int64) [][]float64 {
	t.Helper()
	wh, err := store.Open(whDir)
	if err != nil {
		t.Fatal(err)
	}
	elog, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := elog.MergeInto(); err != nil || n == 0 {
		t.Fatalf("merge: %d rows, %v", n, err)
	}
	pipe, err := core.LoadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	src := core.NewWarehouseSource(wh, synth.DefaultConfig().DaysPerMonth)
	win := features.MonthWindow(4, src.DaysPerMonth())
	var frame *features.Frame
	if degraded {
		frame, _, _, err = pipe.BuildFrameDegraded(src, win)
	} else {
		frame, err = pipe.BuildFrame(src, win, false, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(ids))
	for i, id := range ids {
		out[i], _ = frame.Row(id)
	}
	return out
}

// copyDir copies the regular files under src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRefreshReadsNoRawPartition: /v1/refresh rebuilds from the tables the
// engine already holds. With the served month's recharges and web
// partitions deleted after boot it still succeeds, and serves exactly what
// a rebuild of the untouched warehouse gives once the log is merged.
func TestRefreshReadsNoRawPartition(t *testing.T) {
	whDir, artifact, want := makeWorld(t)
	svc, err := buildService(serviceOpts{artifact: artifact, warehouse: whDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	id := int64String(want.IDs[3])
	batch := `{"events":[
		{"table":"recharges","imsi":` + id + `,"month":4,"day":9,"fields":{"amount":500}},
		{"table":"web","imsi":` + id + `,"month":4,"day":12,"fields":{"page_req":40,"flux":600}}]}`
	if status, body, _ := doRequest(t, ts, "POST", "/v1/events", batch); status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}
	untouched := filepath.Join(t.TempDir(), "wh")
	copyDir(t, whDir, untouched)
	for _, name := range []string{synth.TableRecharges, synth.TableWeb} {
		if err := os.Remove(filepath.Join(whDir, name, "month=4.tct")); err != nil {
			t.Fatal(err)
		}
	}
	if status, body, _ := doRequest(t, ts, "POST", "/v1/refresh", ``); status != http.StatusOK {
		t.Fatalf("refresh without raw partitions: %d %s", status, body)
	}
	sameVectors(t, "refreshed vs merged rebuild", want.IDs, servedVectors(t, svc, want.IDs),
		mergedRebuild(t, untouched, artifact, false, want.IDs))
}

// TestRefreshConcurrentWithIngest: ingest keeps appending to the maintained
// tables while refreshes build from snapshots of them. Afterwards every
// served vector equals the merged rebuild — events that raced a build were
// recomputed against it, none lost — and under -race the snapshots share no
// memory the maintainer writes.
func TestRefreshConcurrentWithIngest(t *testing.T) {
	whDir, artifact, want := makeWorld(t)
	svc, err := buildService(serviceOpts{artifact: artifact, warehouse: whDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			resp, err := http.Post(ts.URL+"/v1/refresh", "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("refresh %d: status %d", i, resp.StatusCode)
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if status, body, _ := doRequest(t, ts, "POST", "/v1/events", rechargeBatch(want.IDs[i:i+2])); status != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, status, body)
		}
	}
	<-done
	sameVectors(t, "after concurrent ingest and refresh", want.IDs, servedVectors(t, svc, want.IDs),
		mergedRebuild(t, whDir, artifact, false, want.IDs))
}

// TestRefreshCountsExhaustedRetries: every read the engine makes counts
// toward retries_exhausted, refresh included. A refresh whose graph groups
// need the served month's truth, deleted after boot, fails with a 503 and
// counts the exhausted read.
func TestRefreshCountsExhaustedRetries(t *testing.T) {
	whDir, artifact, _ := makeWorldPrecomputed(t, false, features.F1Baseline, features.F4CallGraph)
	svc, err := buildService(serviceOpts{artifact: artifact, warehouse: whDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	if err := os.Remove(filepath.Join(whDir, synth.TableTruth, "month=4.tct")); err != nil {
		t.Fatal(err)
	}
	if status, body, _ := doRequest(t, ts, "POST", "/v1/refresh", ``); status != http.StatusServiceUnavailable {
		t.Fatalf("refresh without truth: %d %s, want 503", status, body)
	}
	if _, metrics, _ := getJSON(t, ts.URL+"/metrics"); metrics["retries_exhausted"].(float64) < 1 {
		t.Errorf("retries_exhausted = %v after a failed refresh read, want >= 1", metrics["retries_exhausted"])
	}
}

// TestDegradedBootWithEventLog: a -degraded boot over a warehouse missing a
// raw table folds the unmerged log into the tables it has. It serves what a
// degraded rebuild gives after the log is merged, and takes no events.
func TestDegradedBootWithEventLog(t *testing.T) {
	whDir, artifact, want := makeWorld(t)
	if err := os.RemoveAll(filepath.Join(whDir, synth.TableWeb)); err != nil {
		t.Fatal(err)
	}
	wh, err := store.Open(whDir)
	if err != nil {
		t.Fatal(err)
	}
	elog, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	events := synth.GenerateEvents(want.IDs[:20], 4, synth.DefaultConfig().DaysPerMonth, 200, 3)
	for name := range events {
		if name != synth.TableRecharges {
			delete(events, name)
		}
	}
	if _, err := elog.Append(events); err != nil {
		t.Fatal(err)
	}

	svc, err := buildService(serviceOpts{artifact: artifact, warehouse: whDir, degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	if status, ready, _ := getJSON(t, ts.URL+"/readyz"); status != http.StatusOK || ready["ingest"] != false || ready["degraded"] != "F1" {
		t.Fatalf("readyz = %d %v, want 200, ingest false, degraded F1", status, ready)
	}
	served := servedVectors(t, svc, want.IDs)
	sameVectors(t, "degraded boot vs merged degraded rebuild", want.IDs, served,
		mergedRebuild(t, whDir, artifact, true, want.IDs))
}

// TestWriteJSONUnencodable: a reply JSON cannot carry — a NaN score —
// is the 500 "internal" envelope, not a 200 with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"scores": []float64{0.5, math.NaN()}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("NaN reply = %d, want 500", rec.Code)
	}
	var env errEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "internal" {
		t.Fatalf("NaN reply not the internal envelope: %q", rec.Body.Bytes())
	}
}

// TestPanicRecovery: a handler panic becomes a 500 envelope plus a
// panics_recovered count — except http.ErrAbortHandler, which the
// middleware re-raises, and panics after the response started, which only
// get counted (the envelope never corrupts a half-written body).
func TestPanicRecovery(t *testing.T) {
	svc, _ := buildTestService(t)

	boom := svc.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/score", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	var env errEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "internal" {
		t.Fatalf("panic response not the internal envelope: %s", rec.Body.Bytes())
	}
	if got := svc.metrics.PanicsRecovered.Load(); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}

	// A panic after the handler wrote: the status and body it sent stand.
	late := svc.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("after write")
	}))
	rec = httptest.NewRecorder()
	late.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/score", nil))
	if rec.Code != http.StatusAccepted {
		t.Errorf("post-write panic rewrote the response: %d, want 202", rec.Code)
	}
	if got := svc.metrics.PanicsRecovered.Load(); got != 2 {
		t.Errorf("panics_recovered = %d, want 2", got)
	}

	// http.ErrAbortHandler is net/http's sanctioned abort: re-panic.
	abort := svc.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Error("ErrAbortHandler was swallowed instead of re-raised")
			}
		}()
		abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/score", nil))
	}()
	if got := svc.metrics.PanicsRecovered.Load(); got != 2 {
		t.Errorf("panics_recovered counted the abort: %d, want 2", got)
	}
}

// TestRequestDeadline: with -request-timeout, an expired context renders
// the 504 timeout envelope on both the score path (via scoreStatus) and
// the ingest commit point — never a half-applied write.
func TestRequestDeadline(t *testing.T) {
	whDir, artifact, want := makeWorld(t)
	svc, err := buildService(serviceOpts{
		artifact:   artifact,
		warehouse:  whDir,
		reqTimeout: time.Nanosecond, // expired before any handler runs
	})
	if err != nil {
		t.Fatalf("buildService: %v", err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	status, body, hdr := doRequest(t, ts, "POST", "/v1/score", `{"id":`+int64String(want.IDs[0])+`}`)
	var env errEnvelope
	json.Unmarshal(body, &env)
	if status != http.StatusGatewayTimeout || env.Error.Code != "timeout" || !env.Error.Retryable {
		t.Fatalf("expired score = %d %s, want 504 timeout retryable", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("504 missing Retry-After")
	}

	batch := `{"events":[{"table":"recharges","imsi":` + int64String(want.IDs[0]) + `,"month":4,"day":9,"fields":{"amount":500}}]}`
	status, body, _ = doRequest(t, ts, "POST", "/v1/events", batch)
	json.Unmarshal(body, &env)
	if status != http.StatusGatewayTimeout || env.Error.Code != "timeout" {
		t.Fatalf("expired ingest = %d %s, want 504 timeout", status, body)
	}
	// The deadline fired before the commit point: nothing reached the log.
	if e := svc.cur.Load(); e.log.LastSeq() != 0 {
		t.Errorf("timed-out ingest committed seq %d, want nothing logged", e.log.LastSeq())
	}
}

// TestDrainingLifecycle: once draining flips, readiness reports it (so
// balancers route away) and new refreshes are refused, while in-flight
// scoring keeps working until the listener closes.
func TestDrainingLifecycle(t *testing.T) {
	svc, want := buildTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	svc.draining.Store(true)
	status, body, hdr := getJSON(t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("draining readyz = %d %v, want 503 draining", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining readyz missing Retry-After")
	}
	rstatus, rbody, _ := doRequest(t, ts, "POST", "/v1/refresh", ``)
	var env errEnvelope
	json.Unmarshal(rbody, &env)
	if rstatus != http.StatusServiceUnavailable || env.Error.Message != "draining" || !env.Error.Retryable {
		t.Fatalf("draining refresh = %d %s, want 503 draining retryable", rstatus, rbody)
	}
	// Scores still serve: draining drains, it does not drop.
	if status, _, raw := postScore(t, ts, `{"id":`+int64String(want.IDs[0])+`}`); status != http.StatusOK {
		t.Fatalf("score while draining = %d %s, want 200", status, raw)
	}

	svc.draining.Store(false)
	if status, body, _ := getJSON(t, ts.URL+"/readyz"); status != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz after drain cleared = %d %v, want 200 ready", status, body)
	}
}

// TestRestartQuarantinesCorruptTail: the churnd half of the quarantine
// contract. Two ingested batches, the tail segment's CRC ruined on disk, a
// restart: the survivor batch still serves its fresh score, the corrupt
// tail is sidecar-quarantined (events_quarantined metric, .quarantine
// file), the lost batch's customer falls back to the base score, and the
// next ingest takes a fresh sequence number.
func TestRestartQuarantinesCorruptTail(t *testing.T) {
	svc, want := buildTestService(t)
	ts := httptest.NewServer(svc.Handler())
	idA, idB := want.IDs[3], want.IDs[5]
	for i, id := range []int64{idA, idB} {
		batch := `{"events":[{"table":"recharges","imsi":` + int64String(id) + `,"month":4,"day":9,"fields":{"amount":500}}]}`
		if status, body, _ := doRequest(t, ts, "POST", "/v1/events", batch); status != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i+1, status, body)
		}
	}
	status, sr, _ := postScore(t, ts, `{"id":`+int64String(idA)+`}`)
	if status != http.StatusOK {
		t.Fatal("post-ingest score failed")
	}
	freshA := *sr.Score
	ts.Close()
	svc.Close()

	// Flip the tail segment's last byte: that is the CRC trailer.
	seg := filepath.Join(svc.opts.warehouse, ".events", "seq=00000002.tev")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, err := buildService(svc.opts)
	if err != nil {
		t.Fatalf("restart over corrupt tail: %v", err)
	}
	defer svc2.Close()
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()

	if got := svc2.metrics.EventsQuarantined.Load(); got != 1 {
		t.Errorf("events_quarantined = %d, want 1", got)
	}
	_, metrics, _ := getJSON(t, ts2.URL+"/metrics")
	if metrics["events_quarantined"].(float64) != 1 {
		t.Errorf("/metrics events_quarantined = %v, want 1", metrics["events_quarantined"])
	}
	if _, err := os.Stat(seg + ".quarantine"); err != nil {
		t.Errorf("quarantine sidecar missing: %v", err)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Errorf("corrupt segment still in the replay path: %v", err)
	}

	// Batch 1 survived the quarantine; batch 2's customer is back at base.
	status, sr, raw := postScore(t, ts2, `{"id":`+int64String(idA)+`}`)
	if status != http.StatusOK {
		t.Fatalf("post-restart score: %d %s", status, raw)
	}
	if *sr.Score != freshA {
		t.Errorf("surviving batch lost: %v, want %v", *sr.Score, freshA)
	}
	status, sr, _ = postScore(t, ts2, `{"id":`+int64String(idB)+`}`)
	if status != http.StatusOK {
		t.Fatal("score for quarantined customer failed")
	}
	if *sr.Score != want.Scores[5] {
		t.Errorf("quarantined batch still serving: %v, want base %v", *sr.Score, want.Scores[5])
	}

	// Sequence numbers never rewind past a quarantined segment.
	batch := `{"events":[{"table":"recharges","imsi":` + int64String(idB) + `,"month":4,"day":21,"fields":{"amount":100}}]}`
	status, body, _ := doRequest(t, ts2, "POST", "/v1/events", batch)
	if status != http.StatusOK {
		t.Fatalf("post-quarantine ingest: %d %s", status, body)
	}
	var ev eventsResponse
	json.Unmarshal(body, &ev)
	if ev.Seq != 3 {
		t.Errorf("post-quarantine seq = %d, want 3 (no reuse of the quarantined 2)", ev.Seq)
	}
}

// BenchmarkEventIngest times one POST /v1/events of 8 generated events
// over loopback HTTP: decode, validate, append, fold, and re-fold and
// override every touched customer's F1–F3 row. The log is not fsynced, so
// this measures churnd's CPU per post, not the disk.
func BenchmarkEventIngest(b *testing.B) {
	whDir, artifact, want := makeWorldPrecomputed(b, true, features.F1Baseline, features.F2CS, features.F3PS)
	svc, err := buildService(serviceOpts{
		artifact:  artifact,
		warehouse: whDir,
		fsync:     store.SyncPolicy{Mode: store.SyncOff},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	bodies := make([][]byte, 64)
	for i := range bodies {
		events := synth.GenerateEvents(want.IDs, 4, synth.DefaultConfig().DaysPerMonth, 8, int64(i+1))
		if bodies[i], err = json.Marshal(serve.EventBatch{Events: serve.EventsFromTables(events)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/events", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("post %d: status %d", i, resp.StatusCode)
		}
	}
}
