package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/viewwire"
)

// TestV1ErrorEnvelope pins the error contract, table-driven across
// every handler-rejected request: each failure is exactly the
// {"error":{"code","message"}} envelope, with the documented stable
// code and the documented status.
func TestV1ErrorEnvelope(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	doJSON(t, ts, "POST", "/v1/peers", joinBody(0, 0), http.StatusCreated)

	bigBatch := batchRequest{Queries: make([]queryRequest, maxBatchQueries+1)}
	for i := range bigBatch.Queries {
		bigBatch.Queries[i] = queryRequest{Terms: []string{"c0-t0"}}
	}
	bigBatchBody, _ := json.Marshal(bigBatch)

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"query bad json", "POST", "/v1/query", `{"terms":`, http.StatusBadRequest, api.CodeBadJSON},
		{"query unknown field", "POST", "/v1/query", `{"terms":["x"],"bogus":1}`, http.StatusBadRequest, api.CodeBadJSON},
		{"query trailing data", "POST", "/v1/query", `{"terms":["x"]} garbage`, http.StatusBadRequest, api.CodeBadJSON},
		{"query no terms", "POST", "/v1/query", `{"terms":[]}`, http.StatusBadRequest, api.CodeEmptyQuery},
		{"query body too large", "POST", "/v1/query",
			fmt.Sprintf(`{"terms":["%s"]}`, strings.Repeat("x", maxBodyBytes+1)),
			http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge},
		{"batch no queries", "POST", "/v1/query/batch", `{"queries":[]}`, http.StatusBadRequest, api.CodeEmptyBatch},
		{"batch element no terms", "POST", "/v1/query/batch", `{"queries":[{"terms":[]}]}`, http.StatusBadRequest, api.CodeEmptyQuery},
		{"batch too large", "POST", "/v1/query/batch", string(bigBatchBody), http.StatusRequestEntityTooLarge, api.CodeBatchTooLarge},
		{"join query no terms", "POST", "/v1/peers", `{"items":[],"queries":[{"terms":[],"count":1}]}`, http.StatusBadRequest, api.CodeEmptyQuery},
		{"join bad count", "POST", "/v1/peers", `{"items":[],"queries":[{"terms":["x"],"count":0}]}`, http.StatusBadRequest, api.CodeBadQueryCount},
		{"peer id not a number", "GET", "/v1/peers/xyz", "", http.StatusBadRequest, api.CodeBadPeerID},
		{"peer not found", "GET", "/v1/peers/999", "", http.StatusNotFound, api.CodePeerNotFound},
		{"peer delete not found", "DELETE", "/v1/peers/999", "", http.StatusNotFound, api.CodePeerNotFound},
		{"watch bad seq", "GET", "/v1/view/watch?seq=abc", "", http.StatusBadRequest, api.CodeBadParam},
		{"watch bad pop", "GET", "/v1/view/watch?pop=-3", "", http.StatusBadRequest, api.CodeBadParam},
		{"watch bad timeout", "GET", "/v1/view/watch?timeout_ms=nope", "", http.StatusBadRequest, api.CodeBadParam},
		{"watch negative timeout", "GET", "/v1/view/watch?timeout_ms=-1", "", http.StatusBadRequest, api.CodeBadParam},
		{"watch timeout beyond int64", "GET", "/v1/view/watch?timeout_ms=9223372036854775808", "", http.StatusBadRequest, api.CodeBadParam},
		{"replog bad timeout", "GET", "/v1/replog/watch?timeout_ms=nope", "", http.StatusBadRequest, api.CodeBadParam},
		{"replog negative timeout", "GET", "/v1/replog/watch?timeout_ms=-1", "", http.StatusBadRequest, api.CodeBadParam},
		{"replog timeout beyond int64", "GET", "/v1/replog/watch?timeout_ms=9223372036854775808", "", http.StatusBadRequest, api.CodeBadParam},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := rawDo(t, ts, tc.method, tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", status, tc.wantStatus, body)
			}
			var env struct {
				Error *api.ErrorInfo `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
				t.Fatalf("response is not the error envelope: %s (%v)", body, err)
			}
			if env.Error.Code != tc.wantCode {
				t.Fatalf("code %q, want %q", env.Error.Code, tc.wantCode)
			}
			if env.Error.Message == "" {
				t.Fatal("empty error message")
			}
			// The envelope must be exactly {"error":{...}} with only
			// code and message inside.
			var shape map[string]map[string]any
			if err := json.Unmarshal(body, &shape); err != nil || len(shape) != 1 || len(shape["error"]) != 2 {
				t.Fatalf("envelope shape: %s", body)
			}
		})
	}
}

// TestUnprefixedRoutesGone pins that only the v1 surface is served:
// the unprefixed spellings the daemon answered before /v1/ are 404s.
func TestUnprefixedRoutesGone(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	doJSON(t, ts, "POST", "/v1/peers", joinBody(0, 0), http.StatusCreated)
	for _, rt := range []struct{ method, path, body string }{
		{"POST", "/query", `{"terms":["c0-t0"]}`},
		{"GET", "/stats", ""},
	} {
		if status, body, _ := rawDo(t, ts, rt.method, rt.path, rt.body); status != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404 (%s)", rt.method, rt.path, status, body)
		}
	}
}

// watchRecord long-polls /v1/view/watch once and decodes the record.
func watchRecord(t *testing.T, ts *httptest.Server, query string) (viewwire.Record, int) {
	t.Helper()
	status, body, hdr := rawDo(t, ts, "GET", "/v1/view/watch"+query, "")
	if status != http.StatusOK {
		return viewwire.Record{}, status
	}
	if ct := hdr.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("watch content type %q", ct)
	}
	rec, err := viewwire.Decode(body)
	if err != nil {
		t.Fatalf("watch record does not decode: %v", err)
	}
	return rec, status
}

// TestViewWatchDeltaOnPureRelocation is the acceptance pin for the
// replication feed: first contact yields a full record; a maintenance
// period that only relocates peers (no membership change) advances the
// subscriber with a DELTA record on the same population version; a
// membership change ships as a delta too, chained on the subscriber's
// population version and carrying the newcomer; a position the ring
// cannot vouch for is answered with a full resync.
func TestViewWatchDeltaOnPureRelocation(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 12; i++ {
		doJSON(t, ts, "POST", "/v1/peers", joinBody(i%3, i/3), http.StatusCreated)
	}

	// First contact: full record at the current position.
	full, status := watchRecord(t, ts, "")
	if status != http.StatusOK || full.Kind != viewwire.KindFull {
		t.Fatalf("first contact: status %d kind %d, want 200/full", status, full.Kind)
	}
	if _, err := core.FromViewData(full.View); err != nil {
		t.Fatalf("full record rejected by view validation: %v", err)
	}

	// A maintenance period relocates peers but changes no membership:
	// the subscriber's next record must be a pure-relocation delta.
	rpt := doJSON(t, ts, "POST", "/v1/reform", nil, http.StatusOK)
	if rpt["moves"].(float64) == 0 {
		t.Fatal("reform granted no moves; the fixture no longer exercises relocation")
	}
	rec, status := watchRecord(t, ts, fmt.Sprintf("?seq=%d&pop=%d", full.Seq, full.PopVersion))
	if status != http.StatusOK {
		t.Fatalf("watch after reform: status %d", status)
	}
	if rec.Kind != viewwire.KindDelta {
		t.Fatalf("pure-relocation reform shipped record kind %d, want delta", rec.Kind)
	}
	if rec.PopVersion != full.PopVersion {
		t.Fatalf("delta pop %d, want %d", rec.PopVersion, full.PopVersion)
	}
	if rec.Seq <= full.Seq || len(rec.Moves) == 0 {
		t.Fatalf("delta seq %d (base %d) with %d moves", rec.Seq, full.Seq, len(rec.Moves))
	}
	if readStats(t, ts).WatchDelta == 0 {
		t.Fatal("stats watch_delta still zero after a delta record")
	}

	// Membership change: the subscriber advances with a delta based on
	// its own population version that carries the new peer.
	joined := doJSON(t, ts, "POST", "/v1/peers", joinBody(1, 7), http.StatusCreated)
	rec2, status := watchRecord(t, ts, fmt.Sprintf("?seq=%d&pop=%d", rec.Seq, rec.PopVersion))
	if status != http.StatusOK || rec2.Kind != viewwire.KindDelta {
		t.Fatalf("after membership change: status %d kind %d, want 200/delta", status, rec2.Kind)
	}
	if rec2.BasePop != rec.PopVersion || rec2.PopVersion == rec.PopVersion {
		t.Fatalf("join delta carries pop %d -> %d from a subscriber at %d", rec2.BasePop, rec2.PopVersion, rec.PopVersion)
	}
	if len(rec2.Changed) != 1 || int(rec2.Changed[0].Slot) != int(joined["id"].(float64)) || len(rec2.Changed[0].Items) == 0 {
		t.Fatalf("join delta changes %+v, want the one new peer %v with its content", rec2.Changed, joined["id"])
	}

	// A position whose population version is not the ring entry's is a
	// watcher the daemon cannot diff against: full resync.
	rec3, status := watchRecord(t, ts, fmt.Sprintf("?seq=%d&pop=%d", rec.Seq, rec.PopVersion+100))
	if status != http.StatusOK || rec3.Kind != viewwire.KindFull {
		t.Fatalf("unknown position: status %d kind %d, want 200/full", status, rec3.Kind)
	}
}

// TestViewWatchLongPoll pins the blocking behavior: an up-to-date
// watcher times out with 204, and a watcher blocked mid-poll is woken
// by the next publication.
func TestViewWatchLongPoll(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	doJSON(t, ts, "POST", "/v1/peers", joinBody(0, 0), http.StatusCreated)

	cur, _ := watchRecord(t, ts, "")
	pos := fmt.Sprintf("?seq=%d&pop=%d", cur.Seq, cur.PopVersion)

	status, body, _ := rawDo(t, ts, "GET", "/v1/view/watch"+pos+"&timeout_ms=30", "")
	if status != http.StatusNoContent {
		t.Fatalf("up-to-date watcher: status %d (%s), want 204", status, body)
	}

	type result struct {
		rec    viewwire.Record
		status int
	}
	done := make(chan result, 1)
	go func() {
		rec, status := watchRecord(t, ts, pos+"&timeout_ms=5000")
		done <- result{rec, status}
	}()
	// Give the poller time to block, then publish via a join.
	time.Sleep(20 * time.Millisecond)
	doJSON(t, ts, "POST", "/v1/peers", joinBody(1, 1), http.StatusCreated)
	select {
	case r := <-done:
		if r.status != http.StatusOK || r.rec.Kind != viewwire.KindDelta || len(r.rec.Changed) != 1 {
			t.Fatalf("woken watcher: status %d kind %d with %d changed slots, want 200/delta carrying the join", r.status, r.rec.Kind, len(r.rec.Changed))
		}
		if r.rec.Seq <= cur.Seq {
			t.Fatalf("woken watcher seq %d, base %d", r.rec.Seq, cur.Seq)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("watcher not woken by publication")
	}
}
