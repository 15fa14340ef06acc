package serve

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"telcochurn/internal/features"
)

// Metrics is the scoring service's instrumentation: lock-free counters and
// log-scale histograms, snapshotted as a flat JSON-friendly map in the
// expvar style (stdlib only, scraped via GET /metrics).
type Metrics struct {
	// Requests counts Score and ScoreOne calls; Scored counts individual
	// customer scores produced.
	Requests atomic.Uint64
	Scored   atomic.Uint64
	// Errors counts failed Score calls (unknown customer, oversized
	// request, closed scorer, shed load); QueueFull breaks out the requests
	// shed by admission, Canceled counts calls whose context was already
	// done.
	Errors    atomic.Uint64
	QueueFull atomic.Uint64
	Canceled  atomic.Uint64
	// CacheHits/CacheMisses are fed by the vector cache in front of the
	// feature provider.
	CacheHits   atomic.Uint64
	CacheMisses atomic.Uint64
	// Retries counts source-layer read retries absorbed while assembling
	// the served window; RetriesExhausted counts operations that kept
	// failing after their last attempt (each one degraded or failed a
	// window).
	Retries          atomic.Uint64
	RetriesExhausted atomic.Uint64
	// DegradedMask is a gauge holding the degradation bitmask of the
	// currently served window (bit i-1 = feature group Fi; 0 = healthy).
	DegradedMask atomic.Uint64
	// Reloads counts successful artifact hot-swaps; ReloadFailures counts
	// rejected ones (the previous engine kept serving).
	Reloads        atomic.Uint64
	ReloadFailures atomic.Uint64
	// EventsIngested counts streamed event rows durably logged and folded
	// into serving state; EventsRejected counts rows refused at validation.
	// EventsQuarantined counts corrupt event-log tail segments moved to
	// .quarantine sidecars during replay instead of failing the boot.
	EventsIngested    atomic.Uint64
	EventsRejected    atomic.Uint64
	EventsQuarantined atomic.Uint64
	// PanicsRecovered counts handler panics converted to 500 responses by
	// the recovery middleware.
	PanicsRecovered atomic.Uint64
	// StaleVectors is a gauge: customers currently served from live event
	// overrides, i.e. vectors ahead of the last full build.
	StaleVectors atomic.Uint64
	// Refreshes counts successful /v1/refresh vector swaps;
	// RefreshFailures counts rejected ones. RefreshUnixNano is a gauge
	// holding when the serving base was last (re)built.
	Refreshes       atomic.Uint64
	RefreshFailures atomic.Uint64
	RefreshUnixNano atomic.Int64
	// LatencyNs observes per-request latency of successful Score and
	// ScoreOne calls.
	LatencyNs Histogram
}

// Snapshot renders every counter and histogram into one flat map.
func (m *Metrics) Snapshot() map[string]any {
	hits, misses := m.CacheHits.Load(), m.CacheMisses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	mask := m.DegradedMask.Load()
	return map[string]any{
		"requests":           m.Requests.Load(),
		"scored":             m.Scored.Load(),
		"errors":             m.Errors.Load(),
		"queue_full":         m.QueueFull.Load(),
		"canceled":           m.Canceled.Load(),
		"cache_hits":         hits,
		"cache_misses":       misses,
		"cache_hit_rate":     hitRate,
		"retries":            m.Retries.Load(),
		"retries_exhausted":  m.RetriesExhausted.Load(),
		"degraded_mask":      mask,
		"degraded_groups":    features.Degradation(mask).String(),
		"reloads":            m.Reloads.Load(),
		"reload_failures":    m.ReloadFailures.Load(),
		"events_ingested":    m.EventsIngested.Load(),
		"events_rejected":    m.EventsRejected.Load(),
		"events_quarantined": m.EventsQuarantined.Load(),
		"panics_recovered":   m.PanicsRecovered.Load(),
		"stale_vectors":      m.StaleVectors.Load(),
		"refreshes":          m.Refreshes.Load(),
		"refresh_failures":   m.RefreshFailures.Load(),
		"refresh_age_seconds": func() float64 {
			ns := m.RefreshUnixNano.Load()
			if ns == 0 {
				return -1 // never built
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		}(),
		"latency_ns": m.LatencyNs.Snapshot(),
	}
}

// Histogram is a lock-free base-2 exponential histogram: observation v
// lands in bucket floor(log2(v))+1 (bucket 0 holds v==0), so 64 buckets
// cover the full uint64 range. Good enough to read p50/p90/p99 off a
// latency distribution without any dependency.
type Histogram struct {
	buckets [65]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1): the
// geometric midpoint of the bucket holding the q-th observation. Exact for
// the bucket, approximate within it.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for b := range h.buckets {
		cum += h.buckets[b].Load()
		if cum >= rank {
			if b == 0 {
				return 0
			}
			lo := float64(uint64(1) << (b - 1)) // bucket b holds [2^(b-1), 2^b)
			return lo * math.Sqrt2
		}
	}
	return float64(h.max.Load())
}

// Snapshot renders count/mean/max, the standard serving quantiles, and the
// non-empty raw buckets (lower bound → count), so scrapers can merge or
// re-quantile distributions across instances.
func (h *Histogram) Snapshot() map[string]any {
	count := h.count.Load()
	mean := 0.0
	if count > 0 {
		mean = float64(h.sum.Load()) / float64(count)
	}
	var buckets []map[string]uint64
	for b := range h.buckets {
		n := h.buckets[b].Load()
		if n == 0 {
			continue
		}
		lo := uint64(0)
		if b > 0 {
			lo = uint64(1) << (b - 1) // bucket b holds [2^(b-1), 2^b)
		}
		buckets = append(buckets, map[string]uint64{"ge": lo, "count": n})
	}
	return map[string]any{
		"count":   count,
		"mean":    mean,
		"max":     h.max.Load(),
		"p50":     h.Quantile(0.50),
		"p90":     h.Quantile(0.90),
		"p95":     h.Quantile(0.95),
		"p99":     h.Quantile(0.99),
		"buckets": buckets,
	}
}
