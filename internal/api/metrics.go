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

// Latency summarizes a histogram in a stats payload: the mean and the
// p50/p95/p99 estimates of Quantiles, in microseconds.
type Latency struct {
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
}

// Summary returns the sample count and the latency summary.
func (h *LatencyHist) Summary() (int64, Latency) {
	total, q := h.Quantiles([]float64{0.5, 0.95, 0.99})
	l := Latency{
		P50Us: float64(q[0].Nanoseconds()) / 1e3,
		P95Us: float64(q[1].Nanoseconds()) / 1e3,
		P99Us: float64(q[2].Nanoseconds()) / 1e3,
	}
	if total > 0 {
		l.MeanUs = float64(h.sumNs.Load()) / float64(total) / 1e3
	}
	return total, l
}

// HoldStats is a bare hold-time histogram in a stats payload.
type HoldStats struct {
	Holds int64 `json:"holds"`
	Latency
}

// EndpointStats is one endpoint's entry in a stats payload. Route is
// the endpoint's ServeMux pattern, so dashboards key on the HTTP
// surface.
type EndpointStats struct {
	Route    string `json:"route"`
	Requests int64  `json:"requests"`
	// Errors counts 4xx and 5xx answers.
	Errors int64 `json:"errors"`
	Latency
}

// EndpointMetrics aggregates one endpoint's counters and latencies.
type EndpointMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	lat      LatencyHist
}

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

// Endpoint is one route of a tier's HTTP surface: Key names its entry
// in the stats payload's endpoints block and Pattern is its ServeMux
// pattern, which the entry reports as its route.
type Endpoint struct {
	Key, Pattern string
	H            http.HandlerFunc
}

// Routes is a tier's endpoint table: one mux on which each endpoint is
// registered once, instrumented by its own EndpointMetrics.
type Routes struct {
	mux *http.ServeMux
	eps []Endpoint
	met []EndpointMetrics
}

// NewRoutes registers and instruments the endpoints.
func NewRoutes(eps ...Endpoint) *Routes {
	r := &Routes{mux: http.NewServeMux(), eps: eps, met: make([]EndpointMetrics, len(eps))}
	for i, e := range eps {
		r.mux.HandleFunc(e.Pattern, Instrument(&r.met[i], e.H))
	}
	return r
}

// Handler returns the mux.
func (r *Routes) Handler() http.Handler { return r.mux }

// Stats renders the endpoints block of a stats payload.
func (r *Routes) Stats() map[string]EndpointStats {
	out := make(map[string]EndpointStats, len(r.eps))
	for i, e := range r.eps {
		m := &r.met[i]
		_, l := m.lat.Summary()
		out[e.Key] = EndpointStats{Route: e.Pattern, Requests: m.requests.Load(), Errors: m.errors.Load(), Latency: l}
	}
	return out
}
