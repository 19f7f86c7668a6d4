package api

import (
	"math/bits"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the lock-free request metrics both tiers
// expose: every endpoint owns an EndpointMetrics — request/error
// counters plus a log₂-bucketed latency histogram — updated with
// atomics only, so GET /v1/stats reads exact numbers at any moment,
// including while the daemon's maintenance holds its mutation lock.

// latBuckets spans 1ns..2^43ns (~2.4h); slower requests clamp into
// the last bucket.
const latBuckets = 44

// LatencyHist is a lock-free log₂-bucketed latency histogram. Bucket
// i counts samples whose nanosecond duration has bit length i, i.e.
// durations in [2^(i-1), 2^i).
type LatencyHist struct {
	sumNs  atomic.Int64
	bucket [latBuckets]atomic.Int64
}

// Observe records one sample.
func (h *LatencyHist) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= latBuckets {
		i = latBuckets - 1
	}
	h.bucket[i].Add(1)
	h.sumNs.Add(ns)
}

// Quantiles estimates the given quantiles (ascending, in [0,1]) in
// one pass, returning each as the upper bound of the bucket holding
// its rank — an overestimate by at most 2x, which is the resolution
// the log₂ buckets buy for being lock-free. It also returns the total
// sample count. Concurrent Observes may land mid-scan; the estimate
// is self-consistent over the counts it reads.
func (h *LatencyHist) Quantiles(qs []float64) (total int64, out []time.Duration) {
	var counts [latBuckets]int64
	for i := range counts {
		counts[i] = h.bucket[i].Load()
		total += counts[i]
	}
	out = make([]time.Duration, len(qs))
	if total == 0 {
		return 0, out
	}
	seen := int64(0)
	qi := 0
	for i := 0; i < latBuckets && qi < len(qs); i++ {
		seen += counts[i]
		for qi < len(qs) && float64(seen) >= qs[qi]*float64(total) {
			out[qi] = time.Duration(uint64(1) << uint(i))
			qi++
		}
	}
	return total, out
}

// HoldSnapshot renders a bare histogram (no error counter) for a
// stats payload — used for lock hold times, where the histogram is
// the entire story.
func (h *LatencyHist) HoldSnapshot() map[string]any {
	total, q := h.Quantiles([]float64{0.5, 0.95, 0.99})
	meanUs := 0.0
	if total > 0 {
		meanUs = float64(h.sumNs.Load()) / float64(total) / 1e3
	}
	return map[string]any{
		"holds":   total,
		"mean_us": meanUs,
		"p50_us":  float64(q[0].Nanoseconds()) / 1e3,
		"p95_us":  float64(q[1].Nanoseconds()) / 1e3,
		"p99_us":  float64(q[2].Nanoseconds()) / 1e3,
	}
}

// EndpointMetrics aggregates one endpoint's counters and latencies.
// Route names the endpoint's canonical v1 route ("POST /v1/query");
// it is part of the stats payload so dashboards key on the HTTP
// surface, not on internal metric names, and survive route renames.
type EndpointMetrics struct {
	Route    string
	requests atomic.Int64
	errors   atomic.Int64
	lat      LatencyHist
}

// Snapshot renders the endpoint's stats for the stats payload.
func (m *EndpointMetrics) Snapshot() map[string]any {
	_, q := m.lat.Quantiles([]float64{0.5, 0.95, 0.99})
	n := m.requests.Load()
	meanUs := 0.0
	if n > 0 {
		meanUs = float64(m.lat.sumNs.Load()) / float64(n) / 1e3
	}
	return map[string]any{
		"route":    m.Route,
		"requests": n,
		"errors":   m.errors.Load(),
		"mean_us":  meanUs,
		"p50_us":   float64(q[0].Nanoseconds()) / 1e3,
		"p95_us":   float64(q[1].Nanoseconds()) / 1e3,
		"p99_us":   float64(q[2].Nanoseconds()) / 1e3,
	}
}

// Requests returns the request count so far.
func (m *EndpointMetrics) Requests() int64 { return m.requests.Load() }

// Errors returns the 4xx/5xx count so far.
func (m *EndpointMetrics) Errors() int64 { return m.errors.Load() }

// statusWriter captures the response code for error accounting.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// statusWriters recycles Instrument's wrappers, so wrapping a request
// allocates nothing of its own.
var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

// Instrument wraps a handler with request counting and latency
// recording for m. The wrapper itself takes no locks.
func Instrument(m *EndpointMetrics, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := statusWriters.Get().(*statusWriter)
		sw.ResponseWriter, sw.code = w, http.StatusOK
		h(sw, r)
		m.requests.Add(1)
		if sw.code >= 400 {
			m.errors.Add(1)
		}
		m.lat.Observe(time.Since(start))
		sw.ResponseWriter, sw.code = nil, 0
		statusWriters.Put(sw)
	}
}
