package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"telcochurn/internal/core"
	"telcochurn/internal/features"
	"telcochurn/internal/serve"
	"telcochurn/internal/store"
)

// TestScoreAppenderMatchesMarshal pins appendScoreResponse byte for byte to
// json.Marshal(scoreResponse{...}) plus writeJSON's newline: the edge
// floats of encoding/json's 'f'/'e' switch, then a million random finite
// bit patterns, in both shapes, with and without a degraded mask.
func TestScoreAppenderMatchesMarshal(t *testing.T) {
	modelJSON, _ := json.Marshal("RF")
	check := func(single bool, scores []float64, degraded string) {
		t.Helper()
		resp := scoreResponse{Model: "RF", Month: 4, Degraded: degraded}
		if single {
			resp.Score = &scores[0]
		} else {
			resp.Scores = scores
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		var score float64
		if single {
			score = scores[0]
		}
		got, ok := appendScoreResponse(nil, modelJSON, 4, single, score, scores, degraded)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("appender %q (ok %v), json.Marshal %q", got, ok, want)
		}
	}
	edges := []float64{0, math.Copysign(0, -1), 1, 5e-324, 1e-7, 9.99e-7, 1e-6, 0.1, 1e20, 1e21,
		-1e-7, -1e21, math.MaxFloat64, 0.5, 1.0 / 3}
	for _, degraded := range []string{"", "F3,F6"} {
		for _, f := range edges {
			check(true, []float64{f}, degraded)
		}
		check(false, edges, degraded)
	}

	n := 1_000_000
	if testing.Short() {
		n = 20_000
	}
	rng := rand.New(rand.NewSource(1))
	batch := make([]float64, 0, 8)
	for i := 0; i < n; {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		i++
		degraded := ""
		if i%2 == 0 {
			degraded = "F3"
		}
		check(true, []float64{f}, degraded)
		if batch = append(batch, f); len(batch) == cap(batch) {
			check(false, batch, degraded)
			batch = batch[:0]
		}
	}
}

// decodeScoreRequest decodes body the way decodeBody does: one JSON value,
// nothing after it but whitespace.
func decodeScoreRequest(body []byte) (scoreRequest, error) {
	var req scoreRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return req, errors.New("more than one JSON value")
	}
	return req, nil
}

// FuzzScoreRequest sends arbitrary bodies through churnd's handler. Every
// case ends in 200, 400, 404 or 413 with the error envelope on failure.
// When the recognizer accepts a body, encoding/json decodes it to the same
// id or ids; on 200 every score carries the bits Pipeline.PredictVectors
// gives that customer.
func FuzzScoreRequest(f *testing.F) {
	whDir, artifact, _ := makeWorldPrecomputed(f, true)
	svc, err := buildService(serviceOpts{artifact: artifact, warehouse: whDir})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(svc.Close)
	pipe, err := core.LoadFile(artifact)
	if err != nil {
		f.Fatal(err)
	}
	pv, err := pipe.PredictVectors()
	if err != nil {
		f.Fatal(err)
	}
	bits := make(map[int64]uint64, len(pv.IDs))
	for i, id := range pv.IDs {
		bits[id] = math.Float64bits(pv.Scores[i])
	}
	a, b := int64String(pv.IDs[3]), int64String(pv.IDs[4])
	for _, seed := range []string{
		`{"id":` + a + `}`,
		" {\n\t\"id\" : " + a + " \r\n} \n",
		`{"ids":[` + a + `,` + b + `,` + a + `]}`,
		` { "ids" : [ ` + a + ` , ` + b + ` ] } `,
		`{"ID":` + a + `}`,
		`{"id":` + a + `,"id":` + b + `}`,
		`{"ids":[1],"ids":[` + a + `]}`,
		`{"id":1.0}`,
		`{"id":9007199254740993}`,
		`{"id":-0}`,
		`{"id":01}`,
		`{"ids":[]}`,
		`{"id":1,"ids":[2]}`,
		`{"id":null}`,
		`{"id":` + a + `} junk`,
		`{"id":` + a + `}{"id":` + b + `}`,
		`{"id":9223372036854775808}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	h := svc.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/score", bytes.NewReader(body)))
		req, decErr := decodeScoreRequest(body)
		if id, ids, single, ok := parseScoreRequest(body); ok {
			if decErr != nil {
				t.Fatalf("recognized %q, encoding/json refuses it: %v", body, decErr)
			}
			if single != (req.ID != nil) || single && *req.ID != id || !single && (req.ID != nil || !slices.Equal(ids, req.IDs)) {
				t.Fatalf("recognized %q as id %d ids %v, encoding/json decodes %+v", body, id, ids, req)
			}
		}
		switch rec.Code {
		case http.StatusOK:
			if decErr != nil {
				t.Fatalf("200 for %q, which encoding/json refuses: %v", body, decErr)
			}
			var resp scoreResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 reply %q: %v", rec.Body.Bytes(), err)
			}
			ids, scores := req.IDs, resp.Scores
			if req.ID != nil {
				if resp.Score == nil {
					t.Fatalf("single-id reply %q has no score", rec.Body.Bytes())
				}
				ids, scores = []int64{*req.ID}, []float64{*resp.Score}
			}
			if len(scores) != len(ids) {
				t.Fatalf("%d ids, %d scores: %q", len(ids), len(scores), rec.Body.Bytes())
			}
			for i, id := range ids {
				if math.Float64bits(scores[i]) != bits[id] {
					t.Fatalf("customer %d: served %v, PredictVectors %v", id, scores[i], math.Float64frombits(bits[id]))
				}
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			var env errEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("%d for %q is not an envelope: %q", rec.Code, body, rec.Body.Bytes())
			}
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}

// FuzzEventsRequest sends arbitrary bodies to POST /v1/events on a
// service whose log does not fsync. Every case ends in a typed envelope or
// a 200 whose received count is the batch's event count; never a 500.
func FuzzEventsRequest(f *testing.F) {
	whDir, artifact, want := makeWorldPrecomputed(f, false)
	svc, err := buildService(serviceOpts{
		artifact:  artifact,
		warehouse: whDir,
		fsync:     store.SyncPolicy{Mode: store.SyncOff},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(svc.Close)
	imsi := int64String(want.IDs[0])
	recharge := `{"table":"recharges","imsi":` + imsi + `,"month":4,"day":9,"fields":{"amount":30}}`
	call := func(peer string) string {
		return `{"events":[{"table":"calls","imsi":` + imsi + `,"month":4,"day":3,"fields":{"peer":` + peer + `,"dur":12.5}}]}`
	}
	for _, seed := range []string{
		`{"events":[` + recharge + `]}`,
		`{"events":[` + recharge + `,` + recharge + `]}`,
		`{"events":[` + recharge + `]}{"events":[` + recharge + `]}`,
		call("9007199254740993"),
		call("9223372036854775808"),
		call("-9223372036854775809"),
		call("1.5"),
		`{"events":[]}`,
		`{"events":[{"table":"billing","imsi":1,"month":4,"day":1}]}`,
		`not json`,
		`{"events":[{"table":"recharges","imsi":` + imsi + `,"month":4,"day":9,"fields":{"imsi":7}}]}`,
		`{"events":[{"imsi":` + imsi + `,"table":"recharges","month":4,"day":9,"fields":{"amount":3e1}}]}`,
	} {
		f.Add([]byte(seed))
	}
	h := svc.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/events", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			var batch serve.EventBatch
			if err := json.Unmarshal(body, &batch); err != nil {
				t.Fatalf("200 for %q, which encoding/json refuses: %v", body, err)
			}
			var resp eventsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Received != len(batch.Events) {
				t.Fatalf("200 reply %q for %d events (%v)", rec.Body.Bytes(), len(batch.Events), err)
			}
			return
		}
		var env errEnvelope
		if rec.Code == http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code == "" || env.Error.Message == "" {
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}

// scoreHandlerRun is one in-process POST /v1/score with the request, body
// reader and response writer reused, so only the handler's own allocations
// count.
type scoreHandlerRun struct {
	h    http.Handler
	body bytes.Reader
	raw  []byte
	req  *http.Request
	w    discardWriter
}

func newScoreHandlerRun(h http.Handler, body string) *scoreHandlerRun {
	s := &scoreHandlerRun{h: h, raw: []byte(body)}
	s.req = httptest.NewRequest("POST", "/v1/score", nil)
	s.req.Body = io.NopCloser(&s.body)
	s.w.header = http.Header{}
	return s
}

func (s *scoreHandlerRun) run() int {
	s.body.Reset(s.raw)
	s.w.status = 0
	s.h.ServeHTTP(&s.w, s.req)
	return s.w.status
}

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	header http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }

// TestScoreHandlerAllocs bounds the single-id handler, panic middleware
// included, at no allocation: the tracked writer, the body and reply
// buffers come from pools, and reading the body through
// http.MaxBytesReader, parsing, scoring and encoding allocate nothing. The
// handler over encoding/json made 15.
func TestScoreHandlerAllocs(t *testing.T) {
	svc, want := buildTestService(t)
	run := newScoreHandlerRun(svc.Handler(), `{"id":`+int64String(want.IDs[0])+`}`)
	if code := run.run(); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	const bound = 0
	if got := testing.AllocsPerRun(200, func() { run.run() }); got > bound {
		t.Errorf("single-id POST /v1/score allocates %v times, bound %d", got, bound)
	}
}

// BenchmarkScoreRequest times one single-id POST /v1/score over loopback
// HTTP: read, recognize, score and encode one customer, plus net/http's
// own request and reply handling on both ends.
func BenchmarkScoreRequest(b *testing.B) {
	whDir, artifact, want := makeWorldPrecomputed(b, true, features.F1Baseline, features.F2CS, features.F3PS)
	svc, err := buildService(serviceOpts{artifact: artifact, warehouse: whDir})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = []byte(`{"id":` + int64String(want.IDs[i%len(want.IDs)]) + `}`)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
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
