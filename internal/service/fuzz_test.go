package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzQueryHandlers throws arbitrary bodies at the JSON POST
// endpoints (/query, /query/batch, /peers — selected by the first
// input byte). The contract under fuzz: the daemon never panics,
// never returns a 5xx, and always answers with well-formed JSON —
// malformed bodies, unknown fields and oversized batches all land on
// clean 4xx responses. CI runs a short continuation of this fuzz on
// top of the committed seed corpus in testdata/fuzz.
func FuzzQueryHandlers(f *testing.F) {
	f.Add(byte('q'), []byte(`{"terms":["fz-a"]}`))
	f.Add(byte('q'), []byte(`{"terms":[]}`))
	f.Add(byte('q'), []byte(`{"terms":["fz-a"],"extra":1}`))
	f.Add(byte('q'), []byte(`{`))
	f.Add(byte('b'), []byte(`{"queries":[{"terms":["fz-a"]},{"terms":["fz-b","fz-c"]}]}`))
	f.Add(byte('b'), []byte(`{"queries":[]}`))
	f.Add(byte('b'), []byte(`{"queries":[{"terms":[]}]}`))
	f.Add(byte('p'), []byte(`{"items":[["fz-a"]],"queries":[{"terms":["fz-a"],"count":2}]}`))
	f.Add(byte('p'), []byte(`{"items":[["fz-a"]],"queries":[{"terms":["fz-a"],"count":-1}]}`))
	f.Add(byte('p'), []byte(`{"bogus":true}`))
	f.Add(byte('x'), []byte(`null`))
	f.Add(byte('q'), []byte(`"terms"`))
	f.Add(byte('q'), []byte(`{"terms":["fz-a"]}{"terms":["fz-b"]}`))

	paths := []string{"/v1/query", "/v1/query/batch", "/v1/peers"}
	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		s := New(Config{})
		h := s.Handler()
		seed := httptest.NewRequest("POST", "/v1/peers", strings.NewReader(
			`{"items":[["fz-a","fz-b"],["fz-b","fz-c"]],"queries":[{"terms":["fz-a"],"count":1}]}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, seed)
		if rec.Code != http.StatusCreated {
			t.Fatalf("seed join failed: %d %s", rec.Code, rec.Body.Bytes())
		}

		path := paths[int(which)%len(paths)]
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req) // a panic here fails the fuzz run
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: server error %d %s", path, body, rec.Code, rec.Body.Bytes())
		}
		var out any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("POST %s %q: non-JSON response %q: %v", path, body, rec.Body.Bytes(), err)
		}
		if rec.Code >= 400 {
			m, ok := out.(map[string]any)
			if !ok || m["error"] == nil {
				t.Fatalf("POST %s %q: %d without error field: %s", path, body, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
