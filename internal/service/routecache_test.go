package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestRouteCacheByteIdentity pins the route cache's end-to-end
// contract: a daemon with the cache on (the default) answers every
// query and batch byte-identically to one with the cache disabled —
// on cold lookups, on hot repeats, and again after a mutation
// publishes a new view (which must invalidate wholesale).
func TestRouteCacheByteIdentity(t *testing.T) {
	cached := New(Config{})
	uncached := New(Config{RouteCache: -1})
	tsC := httptest.NewServer(cached.Handler())
	defer tsC.Close()
	tsU := httptest.NewServer(uncached.Handler())
	defer tsU.Close()
	seed := func(ts *httptest.Server) {
		for i := 0; i < 9; i++ {
			doJSON(t, ts, "POST", "/v1/peers", joinBody(i%3, i/3), http.StatusCreated)
		}
	}
	seed(tsC)
	seed(tsU)

	bodies := []string{
		`{"terms":["c0-t0"]}`,
		`{"terms":["c0-t0","c0-t1"]}`,
		`{"terms":["c0-t1","c0-t0"]}`, // same canonical query, reordered
		`{"terms":["c2-t3"]}`,
		`{"terms":["nope"]}`,
	}
	batch := `{"queries":[{"terms":["c0-t0"]},{"terms":["c0-t0"]},{"terms":["c0-t1","c0-t0"]},{"terms":["c0-t0","c0-t1"]},{"terms":["nope"]}]}`

	compare := func(label string) {
		t.Helper()
		for pass := 0; pass < 2; pass++ { // cold then hot
			for _, b := range bodies {
				codeC, gotC, _ := rawDo(t, tsC, "POST", "/v1/query", b)
				codeU, gotU, _ := rawDo(t, tsU, "POST", "/v1/query", b)
				if codeC != http.StatusOK || codeU != http.StatusOK || !bytes.Equal(gotC, gotU) {
					t.Fatalf("%s pass %d query %s: cached %d %s != uncached %d %s",
						label, pass, b, codeC, gotC, codeU, gotU)
				}
			}
			codeC, gotC, _ := rawDo(t, tsC, "POST", "/v1/query/batch", batch)
			codeU, gotU, _ := rawDo(t, tsU, "POST", "/v1/query/batch", batch)
			if codeC != http.StatusOK || codeU != http.StatusOK || !bytes.Equal(gotC, gotU) {
				t.Fatalf("%s pass %d batch: cached %d %s != uncached %d %s",
					label, pass, codeC, gotC, codeU, gotU)
			}
		}
	}
	compare("initial view")

	// A mutation publishes a new view; cached answers must follow it
	// immediately (view-epoch keying — no TTL to wait out).
	doJSON(t, tsC, "POST", "/v1/peers", joinBody(1, 7), http.StatusCreated)
	doJSON(t, tsU, "POST", "/v1/peers", joinBody(1, 7), http.StatusCreated)
	compare("after churn")

	// Observability: the cached daemon reports live counters, the
	// uncached one reports itself disabled.
	if rc := readStats(t, tsC).RouteCache; !rc.Enabled || rc.Hits == 0 || rc.Misses == 0 {
		t.Fatalf("cached daemon's route_cache %+v, want enabled with hits and misses", rc.RouteCacheStats)
	}
	if rc := readStats(t, tsU).RouteCache; rc.Enabled {
		t.Fatalf("uncached daemon reports route_cache enabled: %+v", rc.RouteCacheStats)
	}
}

// TestBatchDedupSharesAnswers pins /v1/query/batch dedup: elements
// that resolve to the same canonical query — whatever the term order
// or repetition — return answers byte-identical to each other AND to
// the same query posted alone, and unknown-term elements still
// marshal the empty clusters array.
func TestBatchDedupSharesAnswers(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 6; i++ {
		doJSON(t, ts, "POST", "/v1/peers", joinBody(i%2, i/2), http.StatusCreated)
	}

	batch := `{"queries":[` +
		`{"terms":["c0-t0","c0-t1"]},` +
		`{"terms":["c0-t1","c0-t0"]},` + // dup of 0, reordered
		`{"terms":["c0-t0","c0-t1","c0-t0"]},` + // dup of 0, repeated term
		`{"terms":["c1-t2"]},` +
		`{"terms":["ghost"]}]}`
	code, body, _ := rawDo(t, ts, "POST", "/v1/query/batch", batch)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var br struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil || len(br.Results) != 5 {
		t.Fatalf("batch decode (%v): %s", err, body)
	}
	if !bytes.Equal(br.Results[0], br.Results[1]) || !bytes.Equal(br.Results[0], br.Results[2]) {
		t.Fatalf("deduped elements differ:\n%s\n%s\n%s", br.Results[0], br.Results[1], br.Results[2])
	}
	if bytes.Equal(br.Results[0], br.Results[3]) {
		t.Fatalf("distinct queries share an answer: %s", br.Results[0])
	}
	for i, q := range []string{`{"terms":["c0-t0","c0-t1"]}`, `{"terms":["c1-t2"]}`} {
		codeS, single, _ := rawDo(t, ts, "POST", "/v1/query", q)
		if codeS != http.StatusOK {
			t.Fatalf("single %s: %d %s", q, codeS, single)
		}
		want := bytes.TrimSpace(single)
		got := bytes.TrimSpace(br.Results[i*3]) // results[0] and results[3]
		if !bytes.Equal(got, want) {
			t.Fatalf("batch element %d %s != single answer %s", i*3, got, want)
		}
	}
	var ghost struct {
		Total    int   `json:"total"`
		Clusters []any `json:"clusters"`
	}
	if err := json.Unmarshal(br.Results[4], &ghost); err != nil || ghost.Total != 0 || ghost.Clusters == nil || len(ghost.Clusters) != 0 {
		t.Fatalf("unknown-term element: %s (err %v)", br.Results[4], err)
	}
	if !bytes.Contains(br.Results[4], []byte(`"clusters":[]`)) {
		t.Fatalf("unknown-term element must marshal clusters as []: %s", br.Results[4])
	}
}
