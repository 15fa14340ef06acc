// Package serve is the online scoring layer over a fitted core.Pipeline.
// There is one scoring path and it runs on the caller's goroutine: resolve
// each customer's feature vector through the provider (an in-memory lookup),
// then walk the flat ensemble — Classifier.Score for one id (zero
// allocations steady-state), one Classifier.ScoreAll call for several (which
// itself fans out across cores only for requests above parallel.DefaultGrain
// rows). Multi-id requests are admitted against one bound on customer scores
// in flight and shed with ErrQueueFull past it; nothing is queued, lingered
// or handed between goroutines. The paper's system applies the trained model
// to the full prepaid base monthly (§5-6); this package is the same scorer
// turned into a long-lived service (cf. Diaz-Aviles et al., "Towards
// Real-time Customer Experience Prediction for Telecommunication
// Operators").
//
// Determinism: every built-in classifier scores rows independently, so
// neither the request a customer is scored in nor the method that asked
// (ScoreOne vs Score) can alter its score — served outputs are bit-identical
// to batch Pipeline.Predict over the same window.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"telcochurn/internal/core"
)

var (
	// ErrQueueFull is returned when admitting a request would put more than
	// Config.QueueSize customer scores in flight — shed load instead of
	// piling up unboundedly.
	ErrQueueFull = errors.New("serve: scoring queue full")
	// ErrTooManyIDs is wrapped into the error for a single request larger
	// than Config.QueueSize: it could never be admitted, so retrying is
	// pointless (unlike ErrQueueFull).
	ErrTooManyIDs = errors.New("serve: too many customers in one request")
	// ErrClosed is returned by Score after Close.
	ErrClosed = errors.New("serve: scorer closed")
	// ErrUnknownCustomer is wrapped into Score errors for ids outside the
	// provider's universe.
	ErrUnknownCustomer = errors.New("serve: unknown customer")
)

// Config tunes the scorer. The zero value means the default.
type Config struct {
	// QueueSize bounds the customer scores in flight across all concurrent
	// multi-id Score calls (default 4096), and so also the largest single
	// request. A request that would exceed it fails fast with ErrQueueFull.
	QueueSize int
}

// Scorer scores customers against a fitted classifier, synchronously on the
// calling goroutine. It is safe for concurrent use.
type Scorer struct {
	clf       core.Classifier
	prov      Provider
	queueSize int64
	metrics   *Metrics

	closed atomic.Bool
	// pending counts customer scores in flight on the multi-id path; the
	// admission check bounds it by queueSize.
	pending atomic.Int64
}

// NewScorer wires a classifier to a vector provider. metrics may be nil (a
// private one is created); retrieve it with Metrics for the /metrics
// endpoint.
func NewScorer(clf core.Classifier, prov Provider, cfg Config, m *Metrics) *Scorer {
	if m == nil {
		m = &Metrics{}
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 4096
	}
	return &Scorer{clf: clf, prov: prov, queueSize: int64(cfg.QueueSize), metrics: m}
}

// Metrics returns the scorer's instrumentation.
func (s *Scorer) Metrics() *Metrics { return s.metrics }

// ScoreOne scores a single customer: a vector lookup plus one
// Classifier.Score walk — zero allocations for the tree families — and
// bit-identical to the same customer scored inside a Score call.
func (s *Scorer) ScoreOne(ctx context.Context, id int64) (float64, error) {
	start := time.Now()
	s.metrics.Requests.Add(1)
	if err := ctx.Err(); err != nil {
		s.metrics.Canceled.Add(1)
		return 0, err
	}
	if s.closed.Load() {
		s.metrics.Errors.Add(1)
		return 0, ErrClosed
	}
	vec, ok := s.prov.Vector(id)
	if !ok {
		s.metrics.Errors.Add(1)
		return 0, unknownCustomer(id)
	}
	score := s.clf.Score(vec)
	s.metrics.Scored.Add(1)
	s.metrics.LatencyNs.Observe(uint64(time.Since(start)))
	return score, nil
}

// unknownCustomer is split out so ScoreOne's happy case stays free of the
// error allocation.
func unknownCustomer(id int64) error {
	return fmt.Errorf("%w %d", ErrUnknownCustomer, id)
}

// Score resolves the customers' feature vectors through the provider and
// scores them with one ScoreAll call on the calling goroutine. Scores are
// positionally aligned with ids (which may repeat) and bit-identical to the
// batch Pipeline.Predict output for the same window. A context that is
// already done fails with its error; a request larger than QueueSize fails
// with ErrTooManyIDs; one that does not fit beside the requests already in
// flight fails fast with ErrQueueFull.
func (s *Scorer) Score(ctx context.Context, ids []int64) ([]float64, error) {
	if len(ids) == 1 {
		// ScoreOne counts its own request metric; one result allocation
		// for the API shape.
		score, err := s.ScoreOne(ctx, ids[0])
		if err != nil {
			return nil, err
		}
		return []float64{score}, nil
	}
	start := time.Now()
	s.metrics.Requests.Add(1)
	if len(ids) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		s.metrics.Canceled.Add(1)
		return nil, err
	}
	n := int64(len(ids))
	if n > s.queueSize {
		s.metrics.Errors.Add(1)
		return nil, fmt.Errorf("%w: %d, limit %d", ErrTooManyIDs, n, s.queueSize)
	}
	if s.closed.Load() {
		s.metrics.Errors.Add(1)
		return nil, ErrClosed
	}
	if s.pending.Add(n) > s.queueSize {
		s.pending.Add(-n)
		s.metrics.QueueFull.Add(1)
		s.metrics.Errors.Add(1)
		return nil, ErrQueueFull
	}
	defer s.pending.Add(-n)

	vecs := make([][]float64, len(ids))
	for i, id := range ids {
		vec, ok := s.prov.Vector(id)
		if !ok {
			s.metrics.Errors.Add(1)
			return nil, unknownCustomer(id)
		}
		vecs[i] = vec
	}
	out := s.clf.ScoreAll(vecs)
	s.metrics.Scored.Add(uint64(n))
	s.metrics.LatencyNs.Observe(uint64(time.Since(start)))
	return out, nil
}

// Close makes every later Score and ScoreOne call fail with ErrClosed. Calls
// already scoring finish normally — they hold nothing Close could take away.
func (s *Scorer) Close() { s.closed.Store(true) }

// Closed reports whether Close has been called (readiness probes use it).
func (s *Scorer) Closed() bool { return s.closed.Load() }
