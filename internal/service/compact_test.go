package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/replog"
)

// floodNovel churns `n` throwaway peers through the daemon, each
// issuing two queries never seen before (and never again): the
// open-ended novel-query pattern that grows the interned query set.
func floodNovel(t *testing.T, ts *httptest.Server, cycle, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		term := func(k int) string { return fmt.Sprintf("novel-%d-%d-%d", cycle, i, k) }
		req := joinRequest{
			Items:   [][]string{{term(0), term(1)}},
			Queries: []replog.QueryCount{{Terms: []string{term(0)}, Count: 2}, {Terms: []string{term(2)}, Count: 1}},
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
			out = append(out, decodeJSON[json.RawMessage](t, ts, "POST", "/v1/query", q, http.StatusOK))
		}
		return out
	}
	baseline := probe()
	baseQueries := readStats(t, ts).Queries

	var floor []int
	for cycle := 1; cycle <= 3; cycle++ {
		floodNovel(t, ts, cycle, 30)
		grown := readStats(t, ts)
		if grown.Queries <= baseQueries {
			t.Fatalf("cycle %d: flood did not grow the query set (%d <= %d)", cycle, grown.Queries, baseQueries)
		}
		before := probe()

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
		st := readStats(t, ts)
		if st.SCost != grown.SCost {
			t.Fatalf("cycle %d: scost changed across compaction: %v -> %v", cycle, grown.SCost, st.SCost)
		}
		floor = append(floor, st.Queries)
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
	snap := decodeJSON[Snapshot](t, ts, "GET", "/v1/snapshot", nil, http.StatusOK)
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
		if got := decodeJSON[json.RawMessage](t, ts2, "POST", "/v1/query", q, http.StatusOK); !bytes.Equal(got, baseline[i]) {
			t.Fatalf("restored daemon answers query %d differently:\n%s\n%s", i, got, baseline[i])
		}
	}
	// The restored engine computes costs by a fresh rebuild; the live
	// one accumulated them incrementally through the churn, so they
	// agree to the membership tolerance, not bit-for-bit.
	st, st2 := readStats(t, ts), readStats(t, ts2)
	if math.Abs(st.SCost-st2.SCost) > 1e-9 || math.Abs(st.WCost-st2.WCost) > 1e-9 {
		t.Fatalf("restored costs %v/%v, want %v/%v", st2.SCost, st2.WCost, st.SCost, st.WCost)
	}
	if st.Peers != st2.Peers || st.Slots != st2.Slots || st.Clusters != st2.Clusters ||
		st.Queries != st2.Queries || st.Compactions != st2.Compactions {
		t.Fatalf("restored stats %+v (generation %d), want %+v (%d)", st2.Gauges, st2.Compactions, st.Gauges, st.Compactions)
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
		waitUntil(t, "the compaction ticker to enforce the policy", 2*time.Second, func() bool {
			st := readStats(t, ts)
			return st.Compactions > 0 && float64(st.DeadQueries) <= 0.5*float64(st.Queries)
		})
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
		if st := readStats(t, ts); st.Compactions == 0 || st.DeadQueries != 0 {
			t.Fatalf("maintenance-period compaction check did not fire: %+v", st)
		}
	})
}
