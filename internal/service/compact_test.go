package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// rawJSON fetches a response body verbatim, for byte-identity pins.
func rawJSON(t *testing.T, srv *httptest.Server, method, path string, body any) []byte {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, out)
	}
	return out
}

// floodNovel churns `n` throwaway peers through the daemon, each
// issuing two queries never seen before (and never again): the
// open-ended novel-query pattern that grows the interned query set.
func floodNovel(t *testing.T, ts *httptest.Server, cycle, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		term := func(k int) string { return fmt.Sprintf("novel-%d-%d-%d", cycle, i, k) }
		req := joinRequest{
			Items:   [][]string{{term(0), term(1)}},
			Queries: []queryCount{{Terms: []string{term(0)}, Count: 2}, {Terms: []string{term(2)}, Count: 1}},
		}
		resp := doJSON(t, ts, "POST", "/v1/peers", req, http.StatusCreated)
		doJSON(t, ts, "DELETE", fmt.Sprintf("/v1/peers/%d", int(resp["id"].(float64))), nil, http.StatusOK)
	}
}

// TestCompactEndpointSurvivesFloods is the end-to-end acceptance pin:
// a stable population plus repeated novel-query floods, compacted
// through POST /compact across three cycles. Query answers must be
// byte-identical through every compaction, the interned query count
// must return to the same live floor each cycle (bounded memory), and
// a snapshot/restore after the last cycle must serve identical state.
func TestCompactEndpointSurvivesFloods(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Stable population: 9 peers across 3 categories.
	for i := 0; i < 9; i++ {
		doJSON(t, ts, "POST", "/v1/peers", joinBody(i%3, i/3), http.StatusCreated)
	}
	doJSON(t, ts, "POST", "/v1/reform", nil, http.StatusOK)

	probes := []queryRequest{
		{Terms: []string{"c0-t0"}},
		{Terms: []string{"c1-t1"}},
		{Terms: []string{"c2-t2"}},
	}
	probe := func() [][]byte {
		var out [][]byte
		for _, q := range probes {
			out = append(out, rawJSON(t, ts, "POST", "/v1/query", q))
		}
		return out
	}
	baseline := probe()
	baseQueries := int(doJSON(t, ts, "GET", "/v1/stats", nil, http.StatusOK)["queries"].(float64))

	var floor []int
	for cycle := 1; cycle <= 3; cycle++ {
		floodNovel(t, ts, cycle, 30)
		st := doJSON(t, ts, "GET", "/v1/stats", nil, http.StatusOK)
		if grown := int(st["queries"].(float64)); grown <= baseQueries {
			t.Fatalf("cycle %d: flood did not grow the query set (%d <= %d)", cycle, grown, baseQueries)
		}
		before := probe()
		scost := st["scost"].(float64)

		comp := doJSON(t, ts, "POST", "/v1/compact", nil, http.StatusOK)
		if comp["removed"].(float64) == 0 {
			t.Fatalf("cycle %d: compaction removed nothing", cycle)
		}
		if got := int(comp["compactions"].(float64)); got != cycle {
			t.Fatalf("cycle %d: compaction generation %d", cycle, got)
		}

		after := probe()
		for i := range before {
			if !bytes.Equal(before[i], after[i]) {
				t.Fatalf("cycle %d: query %d answer changed across compaction:\n%s\n%s",
					cycle, i, before[i], after[i])
			}
			if !bytes.Equal(baseline[i], after[i]) {
				t.Fatalf("cycle %d: query %d answer drifted from baseline", cycle, i)
			}
		}
		st = doJSON(t, ts, "GET", "/v1/stats", nil, http.StatusOK)
		if got := st["scost"].(float64); got != scost {
			t.Fatalf("cycle %d: scost changed across compaction: %v -> %v", cycle, scost, got)
		}
		floor = append(floor, int(st["queries"].(float64)))
	}
	// Bounded memory: every cycle compacts back to the same live floor.
	for i := 1; i < len(floor); i++ {
		if floor[i] != floor[0] {
			t.Fatalf("query floor drifts across cycles: %v", floor)
		}
	}
	if floor[0] != baseQueries {
		t.Fatalf("compacted floor %d != live query set %d", floor[0], baseQueries)
	}

	// Snapshot -> restore: identical peers, costs, answers, generation.
	var snap Snapshot
	if err := json.Unmarshal(rawJSON(t, ts, "GET", "/v1/snapshot", nil), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Compactions != 3 {
		t.Fatalf("snapshot records generation %d, want 3", snap.Compactions)
	}
	restored, err := NewFromSnapshot(Config{}, &snap)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(restored.Handler())
	defer ts2.Close()
	for i, q := range probes {
		if got := rawJSON(t, ts2, "POST", "/v1/query", q); !bytes.Equal(got, baseline[i]) {
			t.Fatalf("restored daemon answers query %d differently:\n%s\n%s", i, got, baseline[i])
		}
	}
	st := doJSON(t, ts, "GET", "/v1/stats", nil, http.StatusOK)
	st2 := doJSON(t, ts2, "GET", "/v1/stats", nil, http.StatusOK)
	for _, k := range []string{"peers", "slots", "clusters", "queries", "compactions"} {
		if st[k] != st2[k] {
			t.Fatalf("restored stats[%q] = %v, want %v", k, st2[k], st[k])
		}
	}
	// The restored engine computes costs by a fresh rebuild; the live
	// one accumulated them incrementally through the churn, so they
	// agree to the membership tolerance, not bit-for-bit.
	for _, k := range []string{"scost", "wcost"} {
		a, b := st[k].(float64), st2[k].(float64)
		if d := a - b; d > 1e-9 || d < -1e-9 {
			t.Fatalf("restored stats[%q] = %v, want %v", k, b, a)
		}
	}
}

// TestCompactTickerAndReformTrigger pins the automatic paths: the
// dead-ratio threshold fires from the compaction ticker, and — with
// the ticker disabled — from the check after each maintenance period.
func TestCompactTickerAndReformTrigger(t *testing.T) {
	t.Run("ticker", func(t *testing.T) {
		s := New(Config{CompactEvery: 2 * time.Millisecond, CompactMinQueries: 1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		s.Start()
		defer s.Shutdown()

		for i := 0; i < 4; i++ {
			doJSON(t, ts, "POST", "/v1/peers", joinBody(i%2, i), http.StatusCreated)
		}
		floodNovel(t, ts, 0, 20)
		// The ticker may already have fired mid-flood; the stable
		// invariant is the policy's own: compactions happened, and the
		// dead ratio ends at or below the threshold (stragglers under
		// it are by design not worth a remap).
		deadline := time.Now().Add(2 * time.Second)
		for {
			st := doJSON(t, ts, "GET", "/v1/stats", nil, http.StatusOK)
			if st["compactions"].(float64) > 0 &&
				st["dead_queries"].(float64) <= 0.5*st["queries"].(float64) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("compaction ticker never enforced the policy: %v", st)
			}
			time.Sleep(time.Millisecond)
		}
	})
	t.Run("reform", func(t *testing.T) {
		s := New(Config{CompactMinQueries: 1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for i := 0; i < 4; i++ {
			doJSON(t, ts, "POST", "/v1/peers", joinBody(i%2, i), http.StatusCreated)
		}
		floodNovel(t, ts, 0, 20)
		doJSON(t, ts, "POST", "/v1/reform", nil, http.StatusOK)
		st := doJSON(t, ts, "GET", "/v1/stats", nil, http.StatusOK)
		if st["compactions"].(float64) == 0 || st["dead_queries"].(float64) != 0 {
			t.Fatalf("maintenance-period compaction check did not fire: %v", st)
		}
	})
}
