package router

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"repro/internal/api"
)

// TestRouterRouteCache pins the router tier's cache wiring: hot
// repeats of the same query answer byte-identically to the first
// (cold) answer and to the daemon, the /v1/stats route_cache block
// reports the hits, and a -route-cache=0 router reports itself
// disabled while still answering identically.
func TestRouterRouteCache(t *testing.T) {
	_, sh, rt := newPair(t)
	rh := rt.Handler()
	for i := 0; i < 6; i++ {
		if code, body := do(sh, "POST", "/v1/peers", joinBodyJSON(i%3, i)); code != http.StatusCreated {
			t.Fatalf("join %d: %d %s", i, code, body)
		}
	}
	want := serviceSeq(t, sh)
	if !rt.WaitSynced(want, 5*time.Second) {
		t.Fatalf("router stuck at seq %d, want %d", rt.Seq(), want)
	}

	queries := [][]byte{
		[]byte(`{"terms":["c0-t0"]}`),
		[]byte(`{"terms":["c1-t1","c1-t2"]}`),
		[]byte(`{"terms":["c2-t0","c0-t1"]}`),
	}
	var cold [][]byte
	for _, q := range queries {
		code, body := do(rh, "POST", "/v1/query", q)
		if code != http.StatusOK {
			t.Fatalf("cold query %s: %d %s", q, code, body)
		}
		cold = append(cold, append([]byte(nil), body...))
	}
	for pass := 0; pass < 3; pass++ {
		for i, q := range queries {
			code, body := do(rh, "POST", "/v1/query", q)
			if code != http.StatusOK || !bytes.Equal(body, cold[i]) {
				t.Fatalf("hot pass %d query %s: %d %s != cold %s", pass, q, code, body, cold[i])
			}
			sCode, sBody := do(sh, "POST", "/v1/query", q)
			if sCode != http.StatusOK || !bytes.Equal(body, sBody) {
				t.Fatalf("query %s: router %s != daemon %s", q, body, sBody)
			}
		}
	}

	if rc := readStats[api.RouterStats](t, rh).RouteCache; !rc.Enabled || rc.Hits == 0 || rc.Misses == 0 {
		t.Fatalf("router route_cache stats %+v, want enabled with hits and misses", rc.RouteCacheStats)
	}

	// A cache-disabled router over the same daemon answers identically
	// and reports the cache off.
	off := New(Config{Upstream: rt.cfg.Upstream, RouteCache: -1,
		PollTimeout: 200 * time.Millisecond, RetryAfter: 5 * time.Millisecond})
	off.Start()
	t.Cleanup(off.Shutdown)
	if !off.WaitSynced(want, 5*time.Second) {
		t.Fatalf("uncached router stuck at seq %d, want %d", off.Seq(), want)
	}
	oh := off.Handler()
	for i, q := range queries {
		code, body := do(oh, "POST", "/v1/query", q)
		if code != http.StatusOK || !bytes.Equal(body, cold[i]) {
			t.Fatalf("uncached router query %s: %d %s != %s", q, code, body, cold[i])
		}
	}
	if readStats[api.RouterStats](t, oh).RouteCache.Enabled {
		t.Fatal("uncached router reports route_cache enabled")
	}
}
