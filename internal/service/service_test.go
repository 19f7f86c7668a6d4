package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/replog"
)

// doJSON issues one request with a JSON-encoded body (nil for none),
// checks the status and decodes the answer as an object.
func doJSON(t *testing.T, srv *httptest.Server, method, path string, body any, wantCode int) map[string]any {
	t.Helper()
	return decodeJSON[map[string]any](t, srv, method, path, body, wantCode)
}

// readStats reads the daemon's GET /v1/stats.
func readStats(t *testing.T, srv *httptest.Server) api.DaemonStats {
	t.Helper()
	return decodeJSON[api.DaemonStats](t, srv, "GET", "/v1/stats", nil, http.StatusOK)
}

// decodeJSON is doJSON decoding into T.
func decodeJSON[T any](t *testing.T, srv *httptest.Server, method, path string, body any, wantCode int) T {
	t.Helper()
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	code, got, _ := rawDo(t, srv, method, path, string(raw))
	var out T
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatalf("%s %s: decode: %v (%s)", method, path, err, got)
	}
	if code != wantCode {
		t.Fatalf("%s %s: status %d want %d (%s)", method, path, code, wantCode, got)
	}
	return out
}

// rawDo issues one request with a raw string body and returns status,
// body and headers.
func rawDo(t *testing.T, ts *httptest.Server, method, path, body string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

func joinBody(cat int, doc int) joinRequest {
	// Three terms per item, category-prefixed so clusters can form.
	term := func(i int) string { return fmt.Sprintf("c%d-t%d", cat, (doc+i)%5) }
	return joinRequest{
		Items:   [][]string{{term(0), term(1)}, {term(1), term(2)}},
		Queries: []replog.QueryCount{{Terms: []string{term(0)}, Count: 3}, {Terms: []string{term(2)}, Count: 2}},
	}
}

// TestServeLifecycle drives the acceptance cycle end to end over HTTP:
// join -> query -> reform -> leave -> snapshot -> restore, with the
// restored daemon serving identical peers, clusters and costs.
func TestServeLifecycle(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Join 9 peers across 3 categories.
	ids := make([]int, 0, 9)
	for i := 0; i < 9; i++ {
		resp := doJSON(t, ts, "POST", "/v1/peers", joinBody(i%3, i/3), http.StatusCreated)
		ids = append(ids, int(resp["id"].(float64)))
	}
	if got := readStats(t, ts).Peers; got != 9 {
		t.Fatalf("stats peers = %d, want 9", got)
	}

	// Query: results for a category-0 term must exist and recall must
	// sum to 1 across clusters.
	q := decodeJSON[queryResponse](t, ts, "POST", "/v1/query", queryRequest{Terms: []string{"c0-t0"}}, http.StatusOK)
	if q.Total <= 0 {
		t.Fatalf("query found no results: %+v", q)
	}
	var recall float64
	for _, hit := range q.Clusters {
		recall += hit.Recall
	}
	if math.Abs(recall-1) > 1e-9 {
		t.Fatalf("cluster recall sums to %g, want 1", recall)
	}
	// Unknown terms yield an empty result, not an error.
	if q := doJSON(t, ts, "POST", "/v1/query", queryRequest{Terms: []string{"nope"}}, http.StatusOK); q["total"].(float64) != 0 {
		t.Fatalf("unknown term matched: %v", q)
	}

	// Maintenance integrates the singleton joiners into clusters.
	doJSON(t, ts, "POST", "/v1/reform", nil, http.StatusOK)
	if st := readStats(t, ts); st.Clusters >= 9 {
		t.Fatalf("reform did not merge singletons: %d clusters", st.Clusters)
	}

	// One peer leaves; its slot shows up in slots but not peers.
	doJSON(t, ts, "DELETE", fmt.Sprintf("/v1/peers/%d", ids[4]), nil, http.StatusOK)
	doJSON(t, ts, "GET", fmt.Sprintf("/v1/peers/%d", ids[4]), nil, http.StatusNotFound)
	doJSON(t, ts, "DELETE", fmt.Sprintf("/v1/peers/%d", ids[4]), nil, http.StatusNotFound)
	st := readStats(t, ts)
	if st.Peers != 8 || st.Slots != 9 {
		t.Fatalf("after leave: peers=%d slots=%d, want 8/9", st.Peers, st.Slots)
	}

	// Snapshot over HTTP, restore into a fresh daemon: identical state.
	snap := decodeJSON[Snapshot](t, ts, "GET", "/v1/snapshot", nil, http.StatusOK)
	restored, err := NewFromSnapshot(Config{}, &snap)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(restored.Handler())
	defer ts2.Close()
	st2 := readStats(t, ts2)
	if st2.Peers != 8 || st2.Slots != 9 {
		t.Fatalf("restored: peers=%d slots=%d, want 8/9", st2.Peers, st2.Slots)
	}
	if math.Abs(st2.SCost-st.SCost) > 1e-9 {
		t.Fatalf("restored scost %g, want %g", st2.SCost, st.SCost)
	}
	for _, id := range ids {
		want := http.StatusOK
		if id == ids[4] {
			want = http.StatusNotFound
		}
		got := doJSON(t, ts2, "GET", fmt.Sprintf("/v1/peers/%d", id), nil, want)
		if want == http.StatusOK {
			orig := doJSON(t, ts, "GET", fmt.Sprintf("/v1/peers/%d", id), nil, http.StatusOK)
			if got["cluster"] != orig["cluster"] {
				t.Fatalf("peer %d cluster %v, want %v", id, got["cluster"], orig["cluster"])
			}
			if math.Abs(got["cost"].(float64)-orig["cost"].(float64)) > 1e-9 {
				t.Fatalf("peer %d cost %v, want %v", id, got["cost"], orig["cost"])
			}
		}
	}

	// A rejoin on the restored daemon reuses the vacated slot.
	rejoin := doJSON(t, ts2, "POST", "/v1/peers", joinBody(1, 1), http.StatusCreated)
	if int(rejoin["id"].(float64)) != ids[4] {
		t.Fatalf("rejoin got slot %v, want vacated slot %d", rejoin["id"], ids[4])
	}
}

// TestSnapshotFileRoundTrip pins the on-disk snapshot path: write,
// load, restore, compare.
func TestSnapshotFileRoundTrip(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 6; i++ {
		doJSON(t, ts, "POST", "/v1/peers", joinBody(i%2, i), http.StatusCreated)
	}
	s.Reform()

	path := filepath.Join(t.TempDir(), "overlay", "snapshot.json")
	if err := s.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewFromSnapshot(Config{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Snapshot(), restored.Snapshot()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("snapshot round-trip diverged:\n%s\n%s", aj, bj)
	}
}

// TestTickerAndShutdown exercises the background maintenance ticker
// and the graceful-shutdown snapshot.
func TestTickerAndShutdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	s := New(Config{ReformEvery: 5 * time.Millisecond, SnapshotPath: path})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Start()
	for i := 0; i < 4; i++ {
		doJSON(t, ts, "POST", "/v1/peers", joinBody(i%2, i), http.StatusCreated)
	}
	waitUntil(t, "the ticker to run a maintenance period", 2*time.Second, func() bool { return readStats(t, ts).Reforms > 0 })
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("shutdown snapshot missing: %v", err)
	}
	if len(snap.Peers) != 4 {
		t.Fatalf("shutdown snapshot has %d peers, want 4", len(snap.Peers))
	}
}
