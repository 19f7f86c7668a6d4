package api

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestInstrumentRecyclesWriters holds Instrument's pooled wrapper to a
// fresh one per request: a request that never calls WriteHeader counts
// as a 200 even right after a 404, and wrapping allocates nothing.
func TestInstrumentRecyclesWriters(t *testing.T) {
	var m EndpointMetrics
	notFound := Instrument(&m, func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNotFound) })
	implicitOK := Instrument(&m, func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) })
	req := httptest.NewRequest("GET", "/", nil)
	for i := 0; i < 4; i++ {
		notFound(httptest.NewRecorder(), req)
		implicitOK(httptest.NewRecorder(), req)
	}
	if m.requests.Load() != 8 || m.errors.Load() != 4 {
		t.Fatalf("8 requests, 4 of them 404s, counted as %d requests, %d errors", m.requests.Load(), m.errors.Load())
	}

	rec := httptest.NewRecorder()
	noop := Instrument(&m, func(http.ResponseWriter, *http.Request) {})
	if allocs := testing.AllocsPerRun(100, func() { noop(rec, req) }); allocs != 0 {
		t.Fatalf("Instrument allocates %.1f objects per request", allocs)
	}
}
